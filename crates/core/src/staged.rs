//! The reconstruction pipeline as explicit stages.
//!
//! [`crate::Rock::try_reconstruct`] is a thin loop over a [`StagedRun`]:
//! `begin` records the load boundary, each [`StagedRun::advance`] call
//! runs exactly one [`StageId`] to completion, and [`StagedRun::finish`]
//! assembles the [`crate::Reconstruction`]. A supervisor (the
//! `rock-supervisor` crate) drives the same loop and persists the
//! attached corpus cache's new entries at every stage boundary. Every
//! stage is a pure function of content-addressed inputs, so a resumed
//! job simply runs again: the corpus tiers answer the stages that
//! already ran, bit for bit.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rock_analysis::{
    extract_tracelets_with, Analysis, AnalysisHooks, CallEvents, Event, ExecCache, NoHooks,
};
use rock_binary::Addr;
use rock_graph::{min_spanning_forest, DiGraph, Forest};
use rock_loader::{LoadIssue, LoadedBinary};
use rock_slm::{ChildTarget, FamilyScorer, Metric, Slm};
use rock_structural::{analyze, Structural};
use rock_trace::{names, MetricsRegistry};

use crate::config::{MAX_TIE_VARIANTS, TIE_EPSILON};
use crate::corpus::{pool_key_of_sum, ModelKey};
use crate::diagnostics::{
    Coverage, DiagnosticSink, FaultKind, Severity, Stage, StageError, Subject,
};
use crate::pipeline::{
    assemble_reconstruction, distance_through, incident_error, load_issue_error, KeyRanks, Rock,
};
use crate::{Reconstruction, StageTimings};

/// One pipeline stage: a supervisor's persistence boundary.
///
/// The variants are ordered: a [`StagedRun`] executes them front to back.
/// (Structural analysis is deliberately not a boundary: it is cheap,
/// deterministic, and derived on demand from the loaded binary plus the
/// recognized ctors.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Behavioral analysis: tracelet extraction + ctor recognition.
    Analysis,
    /// Per-vtable SLM training.
    Training,
    /// Candidate-edge distance scoring.
    Distances,
    /// Per-family arborescence lifting.
    Lifting,
}

impl StageId {
    /// All stages, in execution order.
    pub const ALL: [StageId; 4] =
        [StageId::Analysis, StageId::Training, StageId::Distances, StageId::Lifting];

    /// Stable lowercase name (reports).
    pub fn name(self) -> &'static str {
        match self {
            StageId::Analysis => "analysis",
            StageId::Training => "training",
            StageId::Distances => "distances",
            StageId::Lifting => "lifting",
        }
    }

    /// The stage after this one, if any.
    pub fn next(self) -> Option<StageId> {
        match self {
            StageId::Analysis => Some(StageId::Training),
            StageId::Training => Some(StageId::Distances),
            StageId::Distances => Some(StageId::Lifting),
            StageId::Lifting => None,
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The serial span opened around one stage's `advance` body.
fn stage_span_name(stage: StageId) -> &'static str {
    match stage {
        StageId::Analysis => names::STAGE_ANALYSIS,
        StageId::Training => names::STAGE_TRAINING,
        StageId::Distances => names::STAGE_DISTANCES,
        StageId::Lifting => names::STAGE_LIFTING,
    }
}

/// One in-flight reconstruction, advanced stage by stage.
///
/// Obtained from [`Rock::begin`]; see the module docs for the contract.
pub struct StagedRun<'a> {
    rock: &'a Rock,
    loaded: &'a LoadedBinary,
    run_start: Instant,
    timings: StageTimings,
    metrics: MetricsRegistry,
    sink: DiagnosticSink,
    coverage: Coverage,
    /// Every distance a stage asked for, as a [`KeyRanks::ask`], one
    /// entry per ask: the distance stage's accepted edges, then
    /// repartition's scored pairs.
    asked: Vec<u64>,
    analysis: Option<Analysis>,
    structural: Option<Structural>,
    models: Option<BTreeMap<Addr, Arc<Slm<Event>>>>,
    model_keys: BTreeMap<Addr, ModelKey>,
    ranks: KeyRanks,
    distances: Option<BTreeMap<(Addr, Addr), f64>>,
    graphs: Option<Vec<DiGraph>>,
    hierarchy: Option<Forest<Addr>>,
    cursor: Option<StageId>,
}

/// One child's scored candidate parents, by member position in its
/// family, plus what was dropped on the way and why.
#[derive(Default)]
struct ChildScores {
    /// Accepted `(parent position, distance)` edges.
    accepted: Vec<(usize, f64)>,
    /// Positions of candidate parents skipped because an endpoint has no
    /// trained model (its training faulted upstream).
    unmodeled: Vec<usize>,
    /// Candidates outside the family's member list.
    foreign: Vec<Addr>,
}

impl Rock {
    /// Starts a staged reconstruction: records the load boundary (issues
    /// + initial coverage) and positions the cursor at [`StageId::Analysis`].
    pub fn begin<'a>(&'a self, loaded: &'a LoadedBinary) -> StagedRun<'a> {
        let sink = DiagnosticSink::default();
        let mut coverage = Coverage {
            functions_total: loaded.functions().len(),
            vtables_parsed: loaded.vtables().len(),
            ..Coverage::default()
        };
        // Whatever the (possibly lenient) load degraded on becomes part
        // of this run's diagnostics, so one report covers the whole path.
        for issue in loaded.issues() {
            sink.record(load_issue_error(issue));
            if matches!(issue, LoadIssue::RejectedVtableCandidate { .. }) {
                coverage.vtables_rejected += 1;
            }
        }
        StagedRun {
            rock: self,
            loaded,
            run_start: Instant::now(),
            timings: StageTimings {
                threads: self.config().parallelism.thread_count(),
                ..StageTimings::default()
            },
            metrics: MetricsRegistry::new(),
            sink,
            coverage,
            asked: Vec::new(),
            analysis: None,
            structural: None,
            models: None,
            model_keys: BTreeMap::new(),
            ranks: KeyRanks::default(),
            distances: None,
            graphs: None,
            hierarchy: None,
            cursor: Some(StageId::Analysis),
        }
    }
}

impl<'a> StagedRun<'a> {
    /// The next stage `advance` would run (`None` once all stages ran).
    pub fn pending(&self) -> Option<StageId> {
        self.cursor
    }

    /// Returns `true` once every stage has run.
    pub fn is_done(&self) -> bool {
        self.cursor.is_none()
    }

    /// The binary this run reconstructs.
    pub fn loaded(&self) -> &'a LoadedBinary {
        self.loaded
    }

    /// The trained models, once the training stage completed. Models are
    /// `Arc`-shared: corpus runs alias one model across every type whose
    /// pool hashes to the same content key.
    pub fn models(&self) -> Option<&BTreeMap<Addr, Arc<Slm<Event>>>> {
        self.models.as_ref()
    }

    /// The scored candidate edges, once the distance stage completed.
    pub fn distances(&self) -> Option<&BTreeMap<(Addr, Addr), f64>> {
        self.distances.as_ref()
    }

    /// The metrics recorded so far (work counts only — no wall-clock
    /// values — so the registry is deterministic per binary + config).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The first error-severity diagnostic, under strict mode only.
    fn strict_failure(&self) -> Option<StageError> {
        if !self.rock.config().strict {
            return None;
        }
        self.sink.iter().find(|e| e.severity == Severity::Error).cloned()
    }

    /// Stage-level panic injection (function-level faults go through the
    /// `AnalysisHooks` implementation on the plan instead).
    fn inject(&self, stage: Stage, key: u64) {
        if self.rock.fault_plan().is_some_and(|p| p.should_panic_in(stage, key)) {
            panic!("injected fault: {stage} of item {key:#x}");
        }
    }

    /// Runs the next pending stage to completion.
    ///
    /// Returns the stage that just completed, or `None` if the run was
    /// already done. With [`crate::RockConfig::strict`], the first
    /// error-severity diagnostic aborts the run instead — including one
    /// recorded at the load boundary, which fails the first `advance`
    /// before any analysis happens.
    pub fn advance(&mut self) -> Result<Option<StageId>, StageError> {
        if let Some(e) = self.strict_failure() {
            return Err(e);
        }
        let Some(stage) = self.cursor else { return Ok(None) };
        {
            // Copy the `&'a Rock` out so the span guard borrows the rock,
            // not `self`, which the stage bodies need mutably.
            let rock = self.rock;
            let _stage_span = rock.trace_ctx().span(stage_span_name(stage), 0);
            match stage {
                StageId::Analysis => self.run_analysis(),
                StageId::Training => self.run_training(),
                StageId::Distances => self.run_distances(),
                StageId::Lifting => self.run_lifting(),
            }
        }
        self.cursor = stage.next();
        if let Some(e) = self.strict_failure() {
            return Err(e);
        }
        Ok(Some(stage))
    }

    /// Re-derives the structural analysis if it is not present yet.
    ///
    /// Structural analysis is not a stage boundary: it is a cheap
    /// deterministic function of the loaded binary and the analysis'
    /// recognized ctors and rule-3 pins, computed on first use.
    fn ensure_structural(&mut self) {
        if self.structural.is_some() {
            return;
        }
        let analysis = self.analysis.as_ref().expect("structural analysis needs ctors and pins");
        let stage = Instant::now();
        let rock = self.rock;
        let _span = rock.trace_ctx().span(names::STAGE_STRUCTURAL, 0);
        let structural = analyze(self.loaded, analysis.ctors(), analysis.pinned());
        let stats = structural.stats();
        self.metrics.set(names::STRUCTURAL_RULE1_ELIMINATED, stats.rule1_slot_count as u64);
        self.metrics.set(names::STRUCTURAL_RULE2_ELIMINATED, stats.rule2_pure_slot as u64);
        self.metrics.set(names::STRUCTURAL_RULE3_ELIMINATED, stats.rule3_pinning as u64);
        self.metrics.set(names::STRUCTURAL_REMAINING, stats.remaining as u64);
        self.structural = Some(structural);
        self.timings.structural = stage.elapsed();
    }

    /// Behavioral analysis (also recognizes ctor-like functions). Each
    /// function runs inside `catch_unwind` under its fuel budget; a
    /// faulted function is excluded wholesale and recorded.
    ///
    /// With [`crate::RockConfig::canonical_calls`] the extraction rewrites
    /// call events to position-independent content labels, and — when a
    /// corpus cache is attached — answers whole per-function executions
    /// from the fleet-wide tracelet tier instead of re-running them.
    /// Without canonical calls an attached corpus still answers them, but
    /// under keys bound to this image and each function's entry address,
    /// because raw call events carry addresses.
    fn run_analysis(&mut self) {
        let stage = Instant::now();
        let rock = self.rock;
        let hooks: &dyn AnalysisHooks = match rock.fault_plan() {
            Some(plan) => plan,
            None => &NoHooks,
        };
        let ctx = rock.trace_ctx();
        let mut spans = ctx.local();
        let config = &rock.config().analysis;
        let corpus = rock.corpus_cache();
        let (calls, exec_cache) = if rock.config().canonical_calls {
            (CallEvents::Canonical, corpus.map(|c| c.exec_cache(config)))
        } else {
            (CallEvents::Raw, corpus.map(|c| c.image_exec_cache(config, self.loaded.image())))
        };
        let analysis = extract_tracelets_with(
            self.loaded,
            config,
            hooks,
            &mut spans,
            &mut self.metrics,
            calls,
            exec_cache.as_ref().map(|c| c as &dyn ExecCache),
        );
        ctx.merge(spans);
        self.record_analysis_incidents(&analysis);
        self.record_analysis_metrics(&analysis);
        self.analysis = Some(analysis);
        self.timings.analysis = stage.elapsed();
    }

    /// Folds the deterministic shape of an analysis into the registry.
    /// The pools count their tracelets per length as they fill, so the
    /// length histogram takes one observation per distinct length.
    fn record_analysis_metrics(&mut self, analysis: &Analysis) {
        use rock_analysis::IncidentKind;
        let mut tracelets = 0u64;
        let mut events = 0u64;
        for (len, &n) in analysis.tracelets().count_by_len().iter().enumerate() {
            tracelets += n;
            events += len as u64 * n;
            self.metrics.observe_n(names::HIST_TRACELET_LEN, len as u64, n);
        }
        self.metrics.set(names::ANALYSIS_TRACELETS, tracelets);
        self.metrics.set(names::ANALYSIS_EVENTS, events);
        let fuel_starved = analysis
            .incidents()
            .iter()
            .filter(|(_, k)| matches!(k, IncidentKind::FuelExhausted))
            .count();
        self.metrics.set(names::ANALYSIS_FUEL_EXHAUSTED, fuel_starved as u64);
    }

    /// Folds an analysis' incident list into diagnostics + coverage.
    fn record_analysis_incidents(&mut self, analysis: &Analysis) {
        use rock_analysis::IncidentKind;
        for (entry, incident) in analysis.incidents() {
            match incident {
                IncidentKind::FuelExhausted => self.coverage.functions_timed_out += 1,
                IncidentKind::Panicked(_) | IncidentKind::Skipped => {
                    self.coverage.functions_skipped += 1;
                }
            }
            self.sink.record(incident_error(*entry, incident));
        }
        self.coverage.functions_analyzed = self.coverage.functions_total
            - self.coverage.functions_skipped
            - self.coverage.functions_timed_out;
    }

    /// Computes the content key of every type's tracelet pool (trained
    /// and faulted types alike) from the pool's accumulators; distance
    /// and corpus lookups key on these instead of per-binary vtable
    /// addresses.
    fn compute_model_keys(&mut self) {
        let tracelets = self.analysis.as_ref().expect("model keys follow analysis").tracelets();
        let depth = self.rock.config().analysis.slm_depth;
        self.model_keys = self
            .loaded
            .vtables()
            .iter()
            .map(|vt| (vt.addr(), pool_key_of_sum(depth, tracelets.sum_of(vt.addr()))))
            .collect();
    }

    /// One SLM per binary type, trained independently per vtable. A
    /// training fault drops that type's model; edges touching it are
    /// skipped later and the type degrades to a hierarchy root.
    ///
    /// With a corpus cache attached, types are grouped by pool content
    /// key first: each distinct pool is answered by (or published to) the
    /// fleet-wide model tier exactly once per run, and every alias shares
    /// the same `Arc`'d model. Fault-targeted types train solo so an
    /// injected panic still lands on exactly the type the per-type loop
    /// would have lost.
    fn run_training(&mut self) {
        // Structural analysis times itself; the model keys count as
        // training.
        self.ensure_structural();
        let stage = Instant::now();
        self.compute_model_keys();
        let rock = self.rock;
        let analysis = self.analysis.as_ref().expect("training follows analysis");
        let config = rock.config();
        let ctx = rock.trace_ctx();
        let addrs: Vec<Addr> = self.loaded.vtables().iter().map(|vt| vt.addr()).collect();

        if let Some(corpus) = rock.corpus_cache() {
            let mut groups: BTreeMap<ModelKey, Vec<Addr>> = BTreeMap::new();
            let mut solo: Vec<Vec<Addr>> = Vec::new();
            for &addr in &addrs {
                let targeted = rock
                    .fault_plan()
                    .is_some_and(|p| p.should_panic_in(Stage::Training, addr.value()));
                if targeted {
                    solo.push(vec![addr]);
                } else {
                    groups.entry(self.model_keys[&addr]).or_default().push(addr);
                }
            }
            // Work in first-member (= lowest-address) order so spans and
            // fault diagnostics come out deterministically.
            let mut work: Vec<Vec<Addr>> = groups.into_values().collect();
            work.extend(solo);
            work.sort_by_key(|g| g[0]);
            let trained = crate::par::par_map_catch(config.parallelism, &work, |group| {
                let rep = group[0];
                let key = self.model_keys[&rep];
                let mut spans = ctx.local();
                let token = spans.enter(names::TRAINING_TYPE, rep.value());
                self.inject(Stage::Training, rep.value());
                let model = match corpus.load_model(key) {
                    Some(m) => m,
                    None => {
                        let mut m = Slm::new(config.analysis.slm_depth);
                        for t in analysis.tracelets().tracelets_of(rep) {
                            m.train(t);
                        }
                        m.finalize();
                        let m = Arc::new(m);
                        corpus.store_model(key, Arc::clone(&m));
                        m
                    }
                };
                spans.exit(token);
                (model, spans)
            });
            let mut models: BTreeMap<Addr, Arc<Slm<Event>>> = BTreeMap::new();
            let mut buffers = Vec::new();
            for (group, outcome) in work.iter().zip(trained) {
                match outcome {
                    Ok((m, spans)) => {
                        if !spans.is_empty() {
                            buffers.push(spans);
                        }
                        for &addr in group {
                            models.insert(addr, Arc::clone(&m));
                        }
                    }
                    Err(msg) => {
                        // Pools hash equal => training panics equal: the
                        // whole group records what each member's solo
                        // training would have.
                        for &addr in group {
                            self.sink.record(StageError {
                                stage: Stage::Training,
                                subject: Subject::Vtable(addr),
                                kind: FaultKind::Panicked(msg.clone()),
                                severity: Severity::Error,
                            });
                        }
                    }
                }
            }
            ctx.merge_many(buffers);
            self.set_models(models);
            self.timings.training = stage.elapsed();
            return;
        }

        let trained = crate::par::par_map_catch(config.parallelism, &addrs, |&addr| {
            let mut spans = ctx.local();
            let token = spans.enter(names::TRAINING_TYPE, addr.value());
            self.inject(Stage::Training, addr.value());
            let mut m = Slm::new(config.analysis.slm_depth);
            for t in analysis.tracelets().tracelets_of(addr) {
                m.train(t);
            }
            // Build the interned symbol table + arena trie here, so the
            // cost lands in the (parallel) training stage instead of the
            // first divergence query.
            m.finalize();
            spans.exit(token);
            (m, spans)
        });
        let mut models: BTreeMap<Addr, Arc<Slm<Event>>> = BTreeMap::new();
        let mut buffers = Vec::new();
        for (addr, outcome) in addrs.into_iter().zip(trained) {
            match outcome {
                Ok((m, spans)) => {
                    if !spans.is_empty() {
                        buffers.push(spans);
                    }
                    models.insert(addr, Arc::new(m));
                }
                Err(msg) => self.sink.record(StageError {
                    stage: Stage::Training,
                    subject: Subject::Vtable(addr),
                    kind: FaultKind::Panicked(msg),
                    severity: Severity::Error,
                }),
            }
        }
        // One lock for the whole stage's worker buffers (input order).
        ctx.merge_many(buffers);
        self.set_models(models);
        self.timings.training = stage.elapsed();
    }

    /// Installs trained models and their derived counters.
    fn set_models(&mut self, models: BTreeMap<Addr, Arc<Slm<Event>>>) {
        self.coverage.models_trained = models.len();
        self.metrics.set(names::SLM_MODELS_TRAINED, models.len() as u64);
        let mut nodes = 0u64;
        let mut edges = 0u64;
        let mut bytes = 0u64;
        let mut unique = 0u64;
        let mut total = 0u64;
        for m in models.values() {
            nodes += m.node_count() as u64;
            edges += m.edge_count() as u64;
            bytes += m.approx_trie_bytes() as u64;
            unique += m.unique_training_len() as u64;
            total += m.training_total();
            self.metrics.observe(names::HIST_NODES_PER_MODEL, m.node_count() as u64);
        }
        self.metrics.set(names::SLM_ARENA_NODES, nodes);
        self.metrics.set(names::SLM_ARENA_EDGES, edges);
        self.metrics.set(names::SLM_ARENA_BYTES, bytes);
        self.metrics.set(names::SLM_WORDS_UNIQUE, unique);
        self.metrics.set(names::SLM_WORDS_TOTAL, total);
        self.models = Some(models);
    }

    /// Weighted digraph per family over surviving candidate edges.
    /// Every edge weight is an independent pair divergence, so the
    /// scoring work is flattened to one item per (family, child) —
    /// a binary with few families still fans out across all workers.
    /// The graphs are then assembled serially in family order, which
    /// replays the exact edge-insertion order of the serial loop.
    ///
    /// Each family's models and model keys are laid out in family order
    /// once, and each child maps its candidates to member positions once,
    /// so scoring and merging a pair index vectors instead of probing
    /// maps. A **foreign** candidate — a parent the structural phase
    /// proposed that is no member of the child's family — has no
    /// position in the family's digraph: it is counted, logged by the
    /// merge and dropped.
    ///
    /// Every accepted edge is exactly one distance ask, which the merge
    /// records as the pair of its endpoints' dense key ranks, laid out per
    /// family next to the keys. The output map is built once, in key
    /// order, from the assembled graphs ([`edge_map`]).
    ///
    /// Under KL, a child with at least two in-family candidates scores
    /// its corpus misses (every pair, with no corpus attached) as one
    /// batch ([`ChildTarget`]) over its family's [`FamilyScorer`], built
    /// on the family's first such miss; every other pair runs the
    /// per-pair kernel. Both give the same bits, so the choice changes
    /// only the cost.
    fn run_distances(&mut self) {
        self.ensure_structural();
        let stage = Instant::now();
        self.ranks = KeyRanks::new(&self.model_keys);
        let rock = self.rock;
        let structural = self.structural.as_ref().expect("distances follow structural");
        let models = self.models.as_ref().expect("distances follow training");
        let config = rock.config();
        let corpus = rock.corpus_cache().map(|c| &**c);
        let ctx = rock.trace_ctx();
        let families = structural.families();
        let members: Vec<Vec<Option<&Slm<Event>>>> = families
            .iter()
            .map(|f| f.iter().map(|a| models.get(a).map(|m| &**m)).collect())
            .collect();
        let keys: Vec<Vec<ModelKey>> =
            families.iter().map(|f| f.iter().map(|a| self.model_keys[a]).collect()).collect();
        let ranks: Vec<Vec<u32>> =
            keys.iter().map(|f| f.iter().map(|&k| self.ranks.rank(k)).collect()).collect();
        let children: Vec<(usize, usize)> = families
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| (0..f.len()).map(move |ci| (fi, ci)))
            .collect();
        let scorers: Vec<OnceLock<FamilyScorer<'_, Event>>> =
            families.iter().map(|_| OnceLock::new()).collect();
        let scored = crate::par::par_map_catch(config.parallelism, &children, |&(fi, ci)| {
            let family = &families[fi];
            let child = family[ci];
            let mut spans = ctx.local();
            let token = spans.enter(names::DISTANCES_CHILD, child.value());
            self.inject(Stage::Distances, child.value());
            let candidates: Vec<(Addr, Option<usize>)> = structural
                .possible_parents()
                .of(child)
                .iter()
                .map(|&parent| (parent, family.binary_search(&parent).ok()))
                .collect();
            let batched = config.metric == Metric::KlDivergence
                && candidates.iter().filter(|(_, pi)| pi.is_some()).count() >= 2;
            let mut target: Option<ChildTarget<'_, '_, Event>> = None;
            let mut scores = ChildScores::default();
            for (parent, pi) in candidates {
                let Some(pi) = pi else {
                    scores.foreign.push(parent);
                    continue;
                };
                let pair = spans.enter(names::DISTANCES_PAIR, parent.value());
                match (members[fi][pi], members[fi][ci]) {
                    (Some(pm), Some(cm)) => {
                        let (from, to) = (keys[fi][pi], keys[fi][ci]);
                        let d = distance_through(corpus, config.metric, from, to, || {
                            if !batched {
                                return config.metric.distance(pm, cm);
                            }
                            let scorer =
                                scorers[fi].get_or_init(|| FamilyScorer::new(&members[fi]));
                            target.get_or_insert_with(|| scorer.target(ci)).kl_from(pi)
                        });
                        scores.accepted.push((pi, d));
                    }
                    _ => scores.unmodeled.push(pi),
                }
                spans.exit(pair);
            }
            spans.exit(token);
            (scores, spans)
        });
        let mut graphs: Vec<DiGraph> = families.iter().map(|f| DiGraph::new(f.len())).collect();
        let mut buffers = Vec::new();
        for (&(fi, ci), outcome) in children.iter().zip(scored) {
            let family = &families[fi];
            let child = family[ci];
            let scores = match outcome {
                Ok((scores, spans)) => {
                    if !spans.is_empty() {
                        buffers.push(spans);
                    }
                    scores
                }
                Err(msg) => {
                    // The child keeps no incoming edges and becomes a
                    // root of its family's arborescence.
                    self.sink.record(StageError {
                        stage: Stage::Distances,
                        subject: Subject::Vtable(child),
                        kind: FaultKind::Panicked(msg),
                        severity: Severity::Error,
                    });
                    continue;
                }
            };
            let (accepted, unmodeled) = (scores.accepted.len(), scores.unmodeled.len());
            let foreign = scores.foreign.len();
            self.metrics
                .observe(names::HIST_CANDIDATES_PER_CHILD, (accepted + unmodeled + foreign) as u64);
            self.metrics.add(names::DISTANCES_PAIRS_SCORED, (accepted + unmodeled) as u64);
            self.metrics.add(names::DISTANCES_EDGES, accepted as u64);
            self.metrics.add(names::DISTANCES_FOREIGN_CANDIDATES, foreign as u64);
            self.metrics.add(names::DISTANCES_UNMODELED, unmodeled as u64);
            for parent in &scores.foreign {
                eprintln!(
                    "rock: skipping foreign parent candidate {parent} for {child} \
                     (outside its family)"
                );
            }
            for &pi in &scores.unmodeled {
                self.sink.record(StageError {
                    stage: Stage::Distances,
                    subject: Subject::Edge(family[pi], child),
                    kind: FaultKind::MissingModel,
                    severity: Severity::Warning,
                });
            }
            for &(pi, d) in &scores.accepted {
                graphs[fi].add_edge(pi, ci, d);
                self.asked.push(KeyRanks::ask(ranks[fi][pi], ranks[fi][ci]));
            }
        }
        ctx.merge_many(buffers);
        self.distances = Some(edge_map(families, &graphs));
        self.graphs = Some(graphs);
        self.timings.distances = stage.elapsed();
    }

    /// Per family: minimum-weight maximal forest (§4.2.2), with the
    /// majority-vote tie heuristic when enabled. Results are merged in
    /// family order, so the union is deterministic. A faulted family
    /// degrades to all-roots instead of aborting the run.
    fn run_lifting(&mut self) {
        let stage = Instant::now();
        let rock = self.rock;
        let structural = self.structural.as_ref().expect("lifting follows structural");
        let graphs = self.graphs.as_ref().expect("lifting follows distances");
        let config = rock.config();
        let ctx = rock.trace_ctx();
        let families = structural.families();
        self.coverage.families_total = families.len();
        let graph_items: Vec<(usize, &DiGraph)> = graphs.iter().enumerate().collect();
        let corpus = rock.corpus_cache();
        let model_keys = &self.model_keys;
        let lifted = crate::par::par_map_catch(config.parallelism, &graph_items, |&(fi, graph)| {
            let mut spans = ctx.local();
            let token = spans.enter(names::LIFTING_FAMILY, fi as u64);
            // Fault injection fires before any cache consultation, so a
            // plan that panics this family does so warm or cold alike.
            self.inject(Stage::Lifting, fi as u64);
            // With a corpus cache attached, key the family's lifting by
            // everything the computation below sees: the tie config, the
            // member model keys in family order, and the weighted edges
            // in graph insertion order (assembled deterministically by
            // the distances stage). A hit replays the stored forest and
            // tie count bit-for-bit; anything changed misses.
            let key = corpus.map(|_| {
                let members: Vec<ModelKey> = families[fi].iter().map(|a| model_keys[a]).collect();
                let edges: Vec<(u32, u32, u64)> = graph
                    .edges()
                    .iter()
                    .map(|e| (e.from as u32, e.to as u32, e.weight.to_bits()))
                    .collect();
                crate::corpus::lift_key(config.resolve_ties, &members, &edges)
            });
            let cached = corpus.zip(key).and_then(|(c, k)| c.load_lifting(k));
            let (parent, tie_variants) = match cached {
                Some((parent, tie_variants)) => (parent, tie_variants as usize),
                None => {
                    let (parent, tie_variants) = if config.resolve_ties {
                        // §4.2.2: several arborescences may share the minimal
                        // weight; resolve with the majority-vote heuristic.
                        let variants =
                            rock_graph::co_optimal_forests(graph, TIE_EPSILON, MAX_TIE_VARIANTS);
                        (rock_graph::vote_select(&variants).parent.clone(), variants.len())
                    } else {
                        (min_spanning_forest(graph).parent, 1)
                    };
                    if let (Some(c), Some(k)) = (corpus, key) {
                        c.store_lifting(k, &parent, tie_variants as u64);
                    }
                    (parent, tie_variants)
                }
            };
            spans.exit(token);
            (parent, tie_variants, spans)
        });
        let mut hierarchy: Forest<Addr> = Forest::new();
        let mut buffers = Vec::new();
        for ((fi, family), outcome) in families.iter().enumerate().zip(lifted) {
            let parent = match outcome {
                Ok((parent, tie_variants, spans)) => {
                    if !spans.is_empty() {
                        buffers.push(spans);
                    }
                    self.metrics.add(names::LIFTING_TIE_VARIANTS, tie_variants as u64);
                    self.metrics.observe(names::HIST_FAMILY_SIZE, family.len() as u64);
                    parent
                }
                Err(msg) => {
                    self.sink.record(StageError {
                        stage: Stage::Lifting,
                        subject: Subject::Family(fi),
                        kind: FaultKind::Panicked(msg),
                        severity: Severity::Error,
                    });
                    self.coverage.families_degraded += 1;
                    vec![None; family.len()]
                }
            };
            for (i, p) in parent.iter().enumerate() {
                hierarchy.insert(family[i], p.map(|pi| family[pi]));
            }
        }
        ctx.merge_many(buffers);
        self.coverage.families_lifted =
            self.coverage.families_total - self.coverage.families_degraded;
        self.hierarchy = Some(hierarchy);
        self.timings.lifting = stage.elapsed();
    }

    /// Completes the run: optional repartitioning, final counters, and
    /// the assembled [`Reconstruction`].
    ///
    /// # Panics
    ///
    /// If stages are still pending ([`StagedRun::is_done`] is `false`).
    pub fn finish(mut self) -> Reconstruction {
        assert!(self.is_done(), "finish() with stage {:?} still pending", self.cursor);
        self.ensure_structural();
        let structural = self.structural.take().expect("structural ensured");
        let analysis = self.analysis.take().expect("analysis ran");
        let models = self.models.take().expect("training ran");
        let mut distances = self.distances.take().expect("distances ran");
        let mut hierarchy = self.hierarchy.take().expect("lifting ran");
        let config = *self.rock.config();

        if config.repartition_families {
            let stage = Instant::now();
            let rock = self.rock;
            let ctx = rock.trace_ctx();
            let _span = ctx.span(names::STAGE_REPARTITION, 0);
            let adopted = crate::pipeline::repartition(
                &mut hierarchy,
                &mut distances,
                &structural,
                &models,
                &self.model_keys,
                &self.ranks,
                self.loaded,
                config.metric,
                rock.corpus_cache().map(|c| &**c),
                &mut self.asked,
                config.parallelism,
                ctx,
            );
            self.metrics.set(names::REPARTITION_ADOPTIONS, adopted as u64);
            self.timings.repartition = stage.elapsed();
        }

        // Finalize registry counters that only settle at the run
        // boundary; all of them derive from deterministic state (coverage,
        // diagnostics, the asks).
        let cov = self.coverage;
        self.metrics.set(names::ANALYSIS_FUNCTIONS_TOTAL, cov.functions_total as u64);
        self.metrics.set(names::ANALYSIS_FUNCTIONS_ANALYZED, cov.functions_analyzed as u64);
        self.metrics.set(
            names::ANALYSIS_FUNCTIONS_SKIPPED,
            (cov.functions_skipped + cov.functions_timed_out) as u64,
        );
        self.metrics.set(names::LOAD_VTABLES_PARSED, cov.vtables_parsed as u64);
        self.metrics.set(names::LOAD_VTABLES_REJECTED, cov.vtables_rejected as u64);
        self.metrics.set(names::LIFTING_FAMILIES_TOTAL, cov.families_total as u64);
        self.metrics.set(names::LIFTING_FAMILIES_LIFTED, cov.families_lifted as u64);
        self.metrics.set(names::LIFTING_FAMILIES_DEGRADED, cov.families_degraded as u64);
        // A pair asked for again repeats a computation the run already
        // did: a hit. The first ask of each distinct pair is the miss.
        // Asks are packed key ranks, so distinct asks are distinct pairs.
        let asks = self.asked.len() as u64;
        self.asked.sort_unstable();
        self.asked.dedup();
        let distinct = self.asked.len() as u64;
        self.metrics.set(names::DISTANCES_CACHE_HIT, asks - distinct);
        self.metrics.set(names::DISTANCES_CACHE_MISS, distinct);
        let dropped = self.sink.dropped();
        let diagnostics = self.sink.into_entries();
        let errors = diagnostics.iter().filter(|e| e.severity == Severity::Error).count();
        self.metrics.set(names::DIAGNOSTICS_ERRORS, errors as u64);
        self.metrics.set(names::DIAGNOSTICS_WARNINGS, (diagnostics.len() - errors) as u64);
        self.metrics.set(
            names::DIAGNOSTICS_BYTES,
            diagnostics.iter().map(StageError::approx_bytes).sum::<usize>() as u64,
        );
        if dropped > 0 {
            eprintln!("rock: diagnostic sink overflowed; {dropped} entries dropped");
        }
        self.timings.total = self.run_start.elapsed();

        assemble_reconstruction(
            hierarchy,
            structural,
            analysis,
            distances,
            self.timings,
            diagnostics,
            self.coverage,
            self.metrics,
            config.metric,
            models,
            std::mem::take(&mut self.model_keys),
            self.rock.corpus_cache().cloned(),
        )
    }
}

/// The distance map of the stage's family graphs, built in key order.
///
/// Families partition the vtables, so all of a parent's children are in
/// its family, and a family's graph holds its edges in child order. A
/// stable counting sort of every edge by its parent's rank among all
/// members by address therefore yields the edges in `(parent, child)`
/// order, and `collect` bulk-builds the map from them: its own stable
/// sort finds one sorted run, so no edge is compared out of place or
/// inserted on its own, and the map never depends on that order.
fn edge_map(families: &[Vec<Addr>], graphs: &[DiGraph]) -> BTreeMap<(Addr, Addr), f64> {
    let mut members: Vec<(Addr, usize, usize)> = families
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| f.iter().enumerate().map(move |(pi, &a)| (a, fi, pi)))
        .collect();
    members.sort_unstable();
    let mut rank: Vec<Vec<usize>> = families.iter().map(|f| vec![0; f.len()]).collect();
    for (r, &(_, fi, pi)) in members.iter().enumerate() {
        rank[fi][pi] = r;
    }
    // `next[r]`: the slot of the next edge out of the member ranked `r`.
    let mut next = vec![0; members.len() + 1];
    for (graph, rank) in graphs.iter().zip(&rank) {
        for e in graph.edges() {
            next[rank[e.from] + 1] += 1;
        }
    }
    for r in 1..next.len() {
        next[r] += next[r - 1];
    }
    let mut sorted = vec![((Addr::new(0), Addr::new(0)), 0.0); next[members.len()]];
    for ((graph, rank), family) in graphs.iter().zip(&rank).zip(families) {
        for e in graph.edges() {
            let slot = &mut next[rank[e.from]];
            sorted[*slot] = ((family[e.from], family[e.to]), e.weight);
            *slot += 1;
        }
    }
    sorted.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::Parallelism;
    use crate::RockConfig;
    use rock_minicpp::{compile, CompileOptions, ProgramBuilder};

    fn loaded_sample() -> LoadedBinary {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.class("B").base("A").method("m1", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("b", "B");
            f.vcall("b", "m0", vec![]);
            f.vcall("b", "m1", vec![]);
            f.ret();
        });
        let compiled = compile(&p.finish(), &CompileOptions::default()).unwrap();
        LoadedBinary::load(compiled.stripped_image()).unwrap()
    }

    #[test]
    fn stage_order_and_names() {
        assert_eq!(StageId::ALL.len(), 4);
        assert_eq!(StageId::Analysis.next(), Some(StageId::Training));
        assert_eq!(StageId::Lifting.next(), None);
        assert_eq!(StageId::Distances.to_string(), "distances");
    }

    #[test]
    fn model_keys_are_the_pool_keys_of_the_pools() {
        use crate::corpus::{pool_key, CorpusCache};
        let bench = crate::suite::stress_program(2, 3, 2);
        let loaded = LoadedBinary::load(bench.compile().unwrap().stripped_image()).unwrap();
        let mut canonical = RockConfig::paper();
        canonical.canonical_calls = true;
        for config in [RockConfig::paper(), canonical] {
            let corpus = Arc::new(CorpusCache::new());
            // Without a corpus, then cold and all-hit through one.
            let rocks = [
                Rock::new(config),
                Rock::new(config).with_corpus_cache(Arc::clone(&corpus)),
                Rock::new(config).with_corpus_cache(corpus),
            ];
            for rock in &rocks {
                let mut run = rock.begin(&loaded);
                run.advance().unwrap();
                run.advance().unwrap();
                let pools = run.analysis.as_ref().unwrap().tracelets();
                for vt in loaded.vtables() {
                    let want = pool_key(config.analysis.slm_depth, pools.of_type(vt.addr()));
                    assert_eq!(run.model_keys[&vt.addr()], want, "type {}", vt.addr());
                }
            }
        }
    }

    /// Regression: a possible parent outside the child's family has no
    /// position in the family's digraph; it is counted and dropped, not
    /// looked up.
    #[test]
    fn foreign_candidates_are_counted_and_get_no_edge() {
        use rock_analysis::{ctor_pins, recognize_ctors};
        use rock_binary::{BinaryImage, Section, SectionKind};
        // B's ctor calls A's, pinning A as B's parent. On a copy of the
        // image whose A table is corrupted, the pin (from the intact
        // image's ctors) names an address that is no discovered vtable.
        let intact = loaded_sample();
        let a = intact.vtables().iter().find(|vt| vt.len() == 1).expect("A has one slot").addr();
        let image = intact.image();
        let rodata = image.section(SectionKind::RoData).unwrap();
        let mut bytes = rodata.bytes().to_vec();
        let at = (a.value() - rodata.base().value()) as usize;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut sections: Vec<Section> =
            image.sections().iter().filter(|s| s.kind() != SectionKind::RoData).cloned().collect();
        sections.push(Section::new(SectionKind::RoData, rodata.base(), bytes));
        let loaded = LoadedBinary::load(BinaryImage::new(sections)).unwrap();
        assert!(loaded.vtable_at(a).is_none());
        let b = loaded.vtables()[0].addr();

        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let rock = Rock::new(RockConfig::paper().with_parallelism(par));
            let config = &rock.config().analysis;
            let mut run = rock.begin(&loaded);
            run.advance().unwrap();
            let ctors = recognize_ctors(&intact, config);
            run.structural = Some(analyze(&loaded, &ctors, &ctor_pins(&loaded, &ctors, config)));
            assert_eq!(run.structural.as_ref().unwrap().possible_parents().of(b), [a]);
            while !run.is_done() {
                run.advance().unwrap();
            }
            let recon = run.finish();
            assert_eq!(recon.metrics.counter(names::DISTANCES_FOREIGN_CANDIDATES), 1, "{par:?}");
            assert_eq!(recon.metrics.counter(names::DISTANCES_PAIRS_SCORED), 0, "{par:?}");
            assert!(recon.distances.is_empty(), "{par:?}");
            assert_eq!(recon.parent_of(b), None, "{par:?}");
        }
    }

    /// The merge the distance stage replaced: one `BTreeMap::insert` per
    /// edge of the run's graphs, in merge order.
    fn per_edge_map(families: &[Vec<Addr>], graphs: &[DiGraph]) -> BTreeMap<(Addr, Addr), f64> {
        let mut map = BTreeMap::new();
        for (family, graph) in families.iter().zip(graphs) {
            for e in graph.edges() {
                map.insert((family[e.from], family[e.to]), e.weight);
            }
        }
        map
    }

    /// The count `finish` replaced, as `(cache_hit, cache_miss)`: a sort
    /// and dedup of the run's `(from key, to key)` pairs, one per graph
    /// edge, then repartition's, asked again of `scan_root` per root.
    fn per_pair_counts(run: &StagedRun<'_>) -> (u64, u64) {
        let families = run.structural.as_ref().unwrap().families();
        let keys = &run.model_keys;
        let mut pairs: Vec<(ModelKey, ModelKey)> = families
            .iter()
            .zip(run.graphs.as_ref().unwrap())
            .flat_map(|(f, g)| g.edges().iter().map(move |e| (keys[&f[e.from]], keys[&f[e.to]])))
            .collect();
        let hierarchy = run.hierarchy.as_ref().unwrap();
        let distances = run.distances.as_ref().unwrap();
        let config = run.rock.config();
        // Repartition scans only once some chosen edge calibrates it.
        let calibrated = hierarchy
            .nodes()
            .any(|n| hierarchy.parent_of(n).is_some_and(|p| distances.contains_key(&(*p, *n))));
        if config.repartition_families && calibrated {
            let family_of: BTreeMap<Addr, usize> = families
                .iter()
                .enumerate()
                .flat_map(|(i, f)| f.iter().map(move |a| (*a, i)))
                .collect();
            for &root in hierarchy.roots() {
                crate::pipeline::scan_root(
                    root,
                    hierarchy,
                    &family_of,
                    run.models.as_ref().unwrap(),
                    keys,
                    run.loaded,
                    config.metric,
                    None,
                    &mut pairs,
                );
            }
        }
        let asks = pairs.len() as u64;
        pairs.sort_unstable();
        pairs.dedup();
        (asks - pairs.len() as u64, pairs.len() as u64)
    }

    /// Runs every stage of `loaded` on `rock` and checks the stage's map
    /// and `finish`'s counters against the code they replaced.
    fn check_against_replaced_merge(
        what: &str,
        rock: &Rock,
        loaded: &LoadedBinary,
    ) -> Reconstruction {
        let mut run = rock.begin(loaded);
        while !run.is_done() {
            run.advance().unwrap();
        }
        let bits = |m: &BTreeMap<(Addr, Addr), f64>| -> Vec<((Addr, Addr), u64)> {
            m.iter().map(|(&k, d)| (k, d.to_bits())).collect()
        };
        let families = run.structural.as_ref().unwrap().families();
        let want = per_edge_map(families, run.graphs.as_ref().unwrap());
        assert_eq!(bits(run.distances().unwrap()), bits(&want), "{what}: distance map");
        let counts = per_pair_counts(&run);
        let recon = run.finish();
        let m = &recon.metrics;
        let (hits, misses) =
            (m.counter(names::DISTANCES_CACHE_HIT), m.counter(names::DISTANCES_CACHE_MISS));
        assert_eq!((hits, misses), counts, "{what}: (cache_hit, cache_miss)");
        if !rock.config().repartition_families {
            assert_eq!(
                hits + misses,
                m.counter(names::DISTANCES_EDGES),
                "{what}: one ask per edge"
            );
        }
        recon
    }

    #[test]
    fn edge_map_and_ask_counts_match_the_replaced_merge() {
        use crate::suite;
        let mut benches = suite::all_benchmarks();
        benches.extend(
            [(2, 5, 3), (4, 4, 3), (3, 4, 4)].map(|(f, d, o)| suite::stress_program(f, d, o)),
        );
        benches.extend((0..4).map(|i| suite::corpus_member(i, 40)));
        for bench in benches {
            let loaded = LoadedBinary::load(bench.compile().unwrap().stripped_image()).unwrap();
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                for repartition in [false, true] {
                    let mut config = RockConfig::paper().with_parallelism(par);
                    config.repartition_families = repartition;
                    let what = format!("{} {par:?} repartition {repartition}", bench.name);
                    check_against_replaced_merge(&what, &Rock::new(config), &loaded);
                }
            }
            // Faulted analyses leave types with equal (empty) pools, whose
            // shared keys repeat asks inside the distance stage.
            let faulted = Rock::new(RockConfig::paper())
                .with_fault_plan(Arc::new(crate::FaultPlan::seeded(42, 150)));
            check_against_replaced_merge(&format!("{} faulted", bench.name), &faulted, &loaded);
        }
    }

    /// Two sibling types used identically share a pool key under
    /// canonical calls (their ctors differ only in the vtable they store,
    /// and the two vtables' slots have equal content), so their parent's
    /// edges to them ask one `(from key, to key)` pair twice: the
    /// distance stage's own asks read a hit, with no repartitioning.
    #[test]
    fn siblings_sharing_a_pool_key_read_a_cache_hit() {
        use crate::corpus::pool_key;
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.class("B").base("A").inline_ctor().method("m1", |b| {
            b.ret();
        });
        p.class("C").base("A").inline_ctor().method("m2", |b| {
            b.ret();
        });
        p.func("useA", |f| {
            f.new_obj("a", "A");
            f.vcall("a", "m0", vec![]);
            f.ret();
        });
        for (class, own) in [("B", "m1"), ("C", "m2")] {
            p.func(format!("use{class}"), |f| {
                f.new_obj("o", class);
                f.vcall("o", "m0", vec![]);
                f.vcall("o", own, vec![]);
                f.ret();
            });
        }
        let compiled = compile(&p.finish(), &CompileOptions::default()).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        let (b, c) = (compiled.vtable_of("B").unwrap(), compiled.vtable_of("C").unwrap());
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let config = RockConfig::paper().with_canonical_calls().with_parallelism(par);
            let recon = check_against_replaced_merge(
                &format!("siblings {par:?}"),
                &Rock::new(config),
                &loaded,
            );
            let pools = recon.analysis.tracelets();
            let depth = config.analysis.slm_depth;
            assert_eq!(pool_key(depth, pools.of_type(b)), pool_key(depth, pools.of_type(c)));
            assert!(recon.metrics.counter(names::DISTANCES_CACHE_HIT) > 0, "{par:?}");
        }
    }

    #[test]
    fn staged_run_matches_monolithic_reconstruct() {
        let loaded = loaded_sample();
        let rock = Rock::new(RockConfig::paper());
        let direct = Rock::new(RockConfig::paper()).reconstruct(&loaded);

        let mut run = rock.begin(&loaded);
        let mut order = Vec::new();
        while !run.is_done() {
            order.push(run.advance().expect("non-strict advance cannot fail").unwrap());
        }
        assert_eq!(order, StageId::ALL);
        assert_eq!(run.advance().unwrap(), None, "advancing a done run is a no-op");
        let staged = run.finish();
        assert_eq!(staged.hierarchy, direct.hierarchy);
        assert_eq!(staged.distances, direct.distances);
        assert_eq!(staged.coverage, direct.coverage);
        assert_eq!(staged.diagnostics, direct.diagnostics);
    }
}

//! Tracelet pooling and attribution: `TT(t) = ⋃_{type(o)=t} OT(o)`.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use rock_binary::Addr;
use rock_budget::Budget;
use rock_loader::{LoadedBinary, Vtable};

use rock_trace::{names, panic_message, LocalSpans, MetricsRegistry};

use crate::canon::{tracelet_fp, CachedExec, CachedSub, ContentLabels, ExecCache, PoolSum};
use crate::ctors::{ctor_pins_reusing, parent_ctor_call, recognize_ctors_with};
use crate::{execute_function, AnalysisConfig, CtorMap, Event, ExecStatus, ObjId};

/// Tracelets pooled per binary type (vtable address). Tracelets are
/// shared slices (`Arc`): attribution to several hosting vtables, and
/// corpus-cache hits, alias one allocation instead of copying events.
///
/// A pool holds its tracelets by reference to the subs that contributed
/// them, beside their [`PoolSum`]: attributing a whole sub costs one
/// entry, the pool's content key needs no pass over the events, and the
/// flat list [`TypeTracelets::of_type`] returns is built on its first
/// call. The pipeline walks pools in place
/// ([`TypeTracelets::tracelets_of`]) and never builds it.
#[derive(Clone, Default)]
pub struct TypeTracelets {
    map: BTreeMap<Addr, Pool>,
    /// `by_len[n]`: tracelets of length `n` over every pool, counted as
    /// they are added.
    by_len: Vec<u64>,
}

/// One type's contributions, their accumulators, and the flat list of
/// their tracelets once asked for.
#[derive(Clone, Default)]
struct Pool {
    parts: Vec<Part>,
    sum: PoolSum,
    flat: OnceLock<Vec<Arc<[Event]>>>,
}

/// One contribution to a pool.
#[derive(Clone)]
enum Part {
    /// One non-empty tracelet.
    Tracelet(Arc<[Event]>),
    /// The non-empty pieces of one sub of an execution.
    Sub(Arc<CachedExec>, usize),
}

impl Part {
    fn pieces(&self) -> &[Arc<[Event]>] {
        match self {
            Part::Tracelet(t) => std::slice::from_ref(t),
            Part::Sub(exec, i) => exec.subs[*i].pieces(),
        }
    }
}

impl Pool {
    fn push(&mut self, part: Part, sum: PoolSum) {
        self.parts.push(part);
        self.sum.merge(sum);
        self.flat.take();
    }
}

impl TypeTracelets {
    /// Adds one tracelet for a type (an empty one is dropped).
    pub fn add(&mut self, vtable: Addr, tracelet: Arc<[Event]>) {
        if !tracelet.is_empty() {
            let mut sum = PoolSum::default();
            sum.add(&tracelet, tracelet_fp(&tracelet));
            self.count_len(tracelet.len());
            self.map.entry(vtable).or_default().push(Part::Tracelet(tracelet), sum);
        }
    }

    /// Adds every non-empty piece of sub `index` of `exec` for a type, in
    /// order, and the sub's accumulators with them: one map probe and one
    /// reference per sub, no hashing. A sub without a non-empty piece
    /// adds nothing.
    ///
    /// # Panics
    ///
    /// If `exec` has no sub `index`.
    pub fn add_sub(&mut self, vtable: Addr, exec: &Arc<CachedExec>, index: usize) {
        let sub = &exec.subs[index];
        if sub.sum().count > 0 {
            for piece in sub.pieces().iter().filter(|p| !p.is_empty()) {
                self.count_len(piece.len());
            }
            self.map.entry(vtable).or_default().push(Part::Sub(Arc::clone(exec), index), sub.sum());
        }
    }

    fn count_len(&mut self, len: usize) {
        if self.by_len.len() <= len {
            self.by_len.resize(len + 1, 0);
        }
        self.by_len[len] += 1;
    }

    /// All tracelets of a type (empty slice if none), in contribution
    /// order. The first call for a type builds its list.
    pub fn of_type(&self, vtable: Addr) -> &[Arc<[Event]>] {
        match self.map.get(&vtable) {
            Some(pool) => pool.flat.get_or_init(|| self.tracelets_of(vtable).cloned().collect()),
            None => &[],
        }
    }

    /// The tracelets of a type in the order [`TypeTracelets::of_type`]
    /// lists them, read in place through the subs that hold them: a
    /// caller that only walks them (training does) builds no list.
    pub fn tracelets_of(&self, vtable: Addr) -> impl Iterator<Item = &Arc<[Event]>> {
        let parts = self.map.get(&vtable).map_or(&[][..], |pool| &pool.parts);
        parts.iter().flat_map(Part::pieces).filter(|t| !t.is_empty())
    }

    /// The accumulators of a type's pool (zero if it has none).
    pub fn sum_of(&self, vtable: Addr) -> PoolSum {
        self.map.get(&vtable).map(|pool| pool.sum).unwrap_or_default()
    }

    /// Types that have at least one tracelet.
    pub fn types(&self) -> impl Iterator<Item = Addr> + '_ {
        self.map.keys().copied()
    }

    /// Total number of tracelets across all types.
    pub fn total(&self) -> usize {
        self.map.values().map(|pool| pool.sum.count as usize).sum()
    }

    /// Tracelets per length across all types: entry `n` counts those of
    /// `n` events.
    pub fn count_by_len(&self) -> &[u64] {
        &self.by_len
    }

    /// Returns `true` if no tracelets were extracted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Interns the binary's **global** event alphabet: every distinct
    /// event across all types' tracelets, with dense `u32` ids in `Ord`
    /// order. Because ids depend only on the event *set* (not extraction
    /// order), the table is deterministic per binary — the same property
    /// the per-model SLM interners rely on — and can be shared by any
    /// consumer that wants to work on ids rather than `Event` values.
    pub fn event_table(&self) -> rock_slm::SymbolTable<Event> {
        rock_slm::SymbolTable::from_symbols(
            self.types().flat_map(|vt| self.of_type(vt)).flat_map(|t| t.iter()).copied(),
        )
    }
}

/// Pools compare by their types and each type's tracelet sequence,
/// however the tracelets were contributed.
impl PartialEq for TypeTracelets {
    fn eq(&self, other: &TypeTracelets) -> bool {
        self.types().eq(other.types())
            && self.types().all(|vt| self.of_type(vt) == other.of_type(vt))
    }
}

impl Eq for TypeTracelets {}

impl fmt::Debug for TypeTracelets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.types().map(|vt| (vt, self.of_type(vt)))).finish()
    }
}

/// Aggregate statistics of a type's tracelet pool, for diagnostics and
/// the CLI's `stats` command.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceletStats {
    /// Number of tracelets.
    pub tracelets: usize,
    /// Total events across all tracelets.
    pub events: usize,
    /// Distinct event symbols (the type's alphabet size).
    pub alphabet: usize,
    /// Event counts by kind tag (`"C"`, `"R"`, `"W"`, `"this"`, `"Arg"`,
    /// `"ret"`, `"call"`).
    pub by_kind: BTreeMap<&'static str, usize>,
}

impl TypeTracelets {
    /// Computes aggregate statistics for one type's pool.
    pub fn stats_of(&self, vtable: Addr) -> TraceletStats {
        let pool = self.of_type(vtable);
        let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut distinct = std::collections::BTreeSet::new();
        let mut events = 0usize;
        for t in pool {
            for e in t.iter() {
                *by_kind.entry(e.kind()).or_insert(0) += 1;
                distinct.insert(*e);
                events += 1;
            }
        }
        TraceletStats { tracelets: pool.len(), events, alphabet: distinct.len(), by_kind }
    }
}

impl fmt::Display for TraceletStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tracelets, {} events, |Σ|={}", self.tracelets, self.events, self.alphabet)?;
        for (k, n) in &self.by_kind {
            write!(f, ", {k}:{n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TypeTracelets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (vt, pool) in &self.map {
            writeln!(f, "type @{vt}: {} tracelets", pool.sum.count)?;
        }
        Ok(())
    }
}

/// Why one function contributed nothing to the tracelet pools.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// The symbolic executor panicked; the payload message is preserved.
    Panicked(String),
    /// The per-function fuel budget ran out.
    FuelExhausted,
    /// A hook directed the extractor to skip the function.
    Skipped,
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncidentKind::Panicked(msg) => write!(f, "panicked: {msg}"),
            IncidentKind::FuelExhausted => write!(f, "fuel exhausted"),
            IncidentKind::Skipped => write!(f, "skipped by hook"),
        }
    }
}

/// What to do with one function, decided by [`AnalysisHooks`] before its
/// symbolic execution starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FunctionDirective {
    /// Analyze normally.
    Run,
    /// Skip the function, recording an incident.
    Skip,
    /// Panic inside the (contained) execution — exercises the
    /// panic-isolation path deterministically.
    Panic,
    /// Analyze with this fuel budget instead of the configured one.
    Fuel(Budget),
}

/// Observation/injection points of the behavioral analysis.
///
/// The production pipeline passes a no-op implementation; the
/// fault-injection harness implements this to deterministically skip,
/// panic, or starve named functions. Implementations must be `Sync`
/// because hook objects are shared across pipeline stages.
pub trait AnalysisHooks: Sync {
    /// Decides the fate of `function` before it is analyzed.
    fn before_function(&self, function: Addr) -> FunctionDirective {
        let _ = function;
        FunctionDirective::Run
    }
}

/// The default hooks: analyze everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHooks;

impl AnalysisHooks for NoHooks {}

/// The complete output of the behavioral analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    tracelets: TypeTracelets,
    ctors: CtorMap,
    pinned: BTreeMap<Addr, Addr>,
    incidents: Vec<(Addr, IncidentKind)>,
}

impl Analysis {
    /// Tracelets per type.
    pub fn tracelets(&self) -> &TypeTracelets {
        &self.tracelets
    }

    /// The recognized ctor-like functions.
    pub fn ctors(&self) -> &CtorMap {
        &self.ctors
    }

    /// Parents pinned by constructor-call evidence (§5.2 rule 3), child
    /// vtable → parent vtable: what [`ctor_pins`](crate::ctor_pins)
    /// gives with [`Analysis::ctors`] under the analysis' configuration.
    pub fn pinned(&self) -> &BTreeMap<Addr, Addr> {
        &self.pinned
    }

    /// Functions that contributed nothing and why, in function order.
    pub fn incidents(&self) -> &[(Addr, IncidentKind)] {
        &self.incidents
    }

    /// The binary-wide interned event alphabet
    /// (see [`TypeTracelets::event_table`]).
    pub fn event_table(&self) -> rock_slm::SymbolTable<Event> {
        self.tracelets.event_table()
    }
}

/// Splits an event sequence into non-overlapping windows of at most
/// `len` events (the paper splits sequences "into subsequences of limited
/// length (up to length 7)").
pub(crate) fn windows(events: &[Event], len: usize) -> Vec<Arc<[Event]>> {
    assert!(len > 0, "window length must be positive");
    events.chunks(len).map(Arc::from).collect()
}

/// How the analysis writes the `call(f)` event of a direct call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallEvents {
    /// The callee's entry address.
    Raw,
    /// The callee's position-independent content label
    /// ([`ContentLabels::canonical_event`]).
    Canonical,
}

/// Runs the full behavioral analysis over a loaded binary:
/// ctor recognition, per-function symbolic execution, tracelet
/// attribution, and the rule-3 pins read off the ctors' executions.
/// Raw call events, no hooks, no instrumentation and no cache: the
/// plain form of [`extract_tracelets_with`].
///
/// Attribution rules (§3.2):
///
/// * views typed in-function (vtable store or ctor call) contribute to
///   that vtable's pool;
/// * the `this` view of a **virtual function** (a function appearing in
///   vtable slots) contributes to every vtable containing the function.
pub fn extract_tracelets(loaded: &LoadedBinary, config: &AnalysisConfig) -> Analysis {
    let mut spans = LocalSpans::disabled();
    let mut metrics = MetricsRegistry::new();
    extract_tracelets_with(
        loaded,
        config,
        &NoHooks,
        &mut spans,
        &mut metrics,
        CallEvents::Raw,
        None,
    )
}

/// Resolves one cached execution's attributions for this binary into
/// `targets` (one per sub, `None` marking a host-entry attribution):
/// every stored vtable label must resolve to a unique vtable here,
/// otherwise the entry is rejected (`false`, and the function runs
/// live). Rejection is deterministic per binary — it depends only on
/// the binary's own label map — so cold and warm runs agree on it.
fn resolve_cached(
    labels: &ContentLabels,
    cached: &CachedExec,
    targets: &mut Vec<Option<Addr>>,
) -> bool {
    targets.clear();
    for sub in &cached.subs {
        match sub.vtable {
            None => targets.push(None),
            Some(label) => match labels.vtable_by_label(label) {
                Some(vt) => targets.push(Some(vt)),
                None => return false,
            },
        }
    }
    true
}

/// Attributes sub `index` of `exec`: to its typing vtable's pool, or,
/// for a host-entry view (`None`), to the pool of every vtable hosting
/// the function.
fn attribute<'v>(
    tracelets: &mut TypeTracelets,
    target: Option<Addr>,
    exec: &Arc<CachedExec>,
    index: usize,
    hosts: impl Iterator<Item = &'v Vtable>,
) {
    match target {
        Some(vt) => tracelets.add_sub(vt, exec, index),
        None => {
            for vt in hosts {
                tracelets.add_sub(vt.addr(), exec, index);
            }
        }
    }
}

/// Gives each sub of a live execution the content label of its typing
/// vtable (`targets`, one per sub; `None` = host-entry view), so the
/// execution can be stored position-independently. Returns `false` if
/// some typing vtable has no label (cannot happen for vtables the loader
/// accepted, but refusing is safer than storing a lossy entry).
fn label_subs(labels: &ContentLabels, targets: &[Option<Addr>], subs: &mut [CachedSub]) -> bool {
    for (target, sub) in targets.iter().zip(subs) {
        sub.vtable = match target {
            None => None,
            Some(addr) => match labels.vtable_label(*addr) {
                Some(label) => Some(label),
                None => return false,
            },
        };
    }
    true
}

/// The behavioral analysis driver: [`extract_tracelets`] with fault
/// isolation, instrumentation, a call-event form and an optional
/// content-addressed execution cache.
///
/// **Fault isolation.** `hooks` decides each function's fate before it
/// runs. Every function is analyzed inside `catch_unwind`, so a
/// panicking symbolic execution (a bug, or an injected fault) is
/// contained: the function contributes no tracelets and an incident is
/// recorded. Fuel exhaustion is handled the same way: a function either
/// completes within its budget or is excluded wholesale, which keeps
/// the surviving pools identical to a clean run over the surviving
/// functions.
///
/// **Instrumentation.** One [`rock_trace::names::ANALYSIS_FUNCTION`]
/// span per function (subject = entry address) goes into `spans`, and
/// the fuel of completed executions into `metrics`
/// ([`rock_trace::names::ANALYSIS_FUEL_SPENT`]). Instrumentation never
/// changes the analysis, and a disabled `spans` buffer makes the span
/// path a no-op. At `stage` or `sampled` trace levels the filtered
/// spans cost no clock read and no push, decided by `(name, entry
/// address)` alone, so the recorded set is the same on every rerun.
///
/// **Call events and the cache.** `calls` and `cache` are the two
/// choices the pipeline makes; the driver derives the labels it needs:
///
/// | `calls` | `cache` | keys and labels | pipeline config |
/// |---|---|---|---|
/// | `Raw` | `None` | none | the default `RockConfig`, no corpus (`rock reconstruct`) |
/// | `Raw` | `Some` | function labels bound to entry addresses | no canonical calls, corpus attached (`rock batch --resume`) |
/// | `Canonical` | `None` | content labels | `canonical_calls`, no corpus |
/// | `Canonical` | `Some` | content labels | `canonical_calls`, corpus attached (`--incremental`, `rock serve`) |
///
/// With canonical calls, direct-call events name the callee's
/// position-independent content label, so the pools, and everything
/// downstream of them, hash identically across binaries that lay the
/// same code out at different addresses. Raw call events carry callee
/// addresses, so a cached raw execution is valid only for the function
/// it was computed from: every key, ctor recognition's included, binds
/// the function's content label to its entry address, and `cache` must
/// scope its keys to this image (the corpus cache's image-salted view
/// does).
///
/// With a cache, each completed execution is stored under the
/// function's key, and later extractions reuse it instead of executing
/// again, crediting the stored fuel so metrics are byte-identical
/// between cold and warm runs. Only plain [`FunctionDirective::Run`]
/// functions under the configured fuel consult it: fault-injected and
/// fuel-overridden executions always run live, since their outcome is
/// not a pure function of content.
pub fn extract_tracelets_with(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
    hooks: &dyn AnalysisHooks,
    spans: &mut LocalSpans,
    metrics: &mut MetricsRegistry,
    calls: CallEvents,
    cache: Option<&dyn ExecCache>,
) -> Analysis {
    let labels = match (calls, cache) {
        (CallEvents::Canonical, _) => Some(ContentLabels::compute(loaded)),
        (CallEvents::Raw, Some(_)) => Some(ContentLabels::compute(loaded).bound_to_entries()),
        (CallEvents::Raw, None) => None,
    };
    let canonical = labels.as_ref().filter(|_| calls == CallEvents::Canonical);
    let cached_by = labels.as_ref().zip(cache);
    // The ctor pre-pass is a pure function of content (hooks never reach
    // it), so it shares the execution cache.
    let ctors = recognize_ctors_with(loaded, config, cached_by);
    let mut tracelets = TypeTracelets::default();
    let mut incidents: Vec<(Addr, IncidentKind)> = Vec::new();
    let mut targets: Vec<Option<Addr>> = Vec::new();
    let mut evidence: BTreeMap<Addr, Option<Addr>> = BTreeMap::new();

    for f in loaded.functions() {
        let entry = f.entry();
        let mut cfg = *config;
        let mut inject_panic = false;
        let mut fuel_overridden = false;
        match hooks.before_function(entry) {
            FunctionDirective::Run => {}
            FunctionDirective::Skip => {
                incidents.push((entry, IncidentKind::Skipped));
                continue;
            }
            FunctionDirective::Panic => inject_panic = true,
            FunctionDirective::Fuel(b) => {
                cfg.fuel = b;
                fuel_overridden = true;
            }
        }
        let token = spans.enter(names::ANALYSIS_FUNCTION, entry.value());

        // A cached result stands in for live execution only when the
        // outcome is a pure function of the body: no injected fault and
        // no per-function fuel override.
        let cacheable = !inject_panic && !fuel_overridden;
        let cached_as = match cached_by {
            Some((labels, cache)) if cacheable => {
                labels.function_label(entry).map(|key| (labels, cache, key))
            }
            _ => None,
        };
        let hosts = loaded.vtables_containing(entry);

        // Cache hit: attribute the shared entry's subs directly — one
        // reference per sub, no event copies, no re-windowing, no hashing.
        if let Some((labels, cache, key)) = cached_as {
            if let Some(cached) = cache.load(key) {
                if resolve_cached(labels, &cached, &mut targets) {
                    metrics.add(names::ANALYSIS_FUEL_SPENT, cached.fuel_spent);
                    for (index, &target) in targets.iter().enumerate() {
                        attribute(&mut tracelets, target, &cached, index, hosts.clone());
                    }
                    spans.exit(token);
                    continue;
                }
                // An unresolvable label rejects the entry for this
                // binary; the function runs live below.
            }
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: behavioral analysis of {entry}");
            }
            execute_function(f, loaded, &ctors, &cfg)
        }));
        // A ctor's rule-3 evidence is read off this execution, before the
        // canonical rewrite, when it is the one `ctor_pins` would run: the
        // configured budget, partial paths of a fuel-starved run included.
        if let (Ok((paths, ..)), Some(own_vt)) = (&outcome, ctors.primary_vtable_of(entry)) {
            if !fuel_overridden {
                evidence.insert(entry, parent_ctor_call(paths, own_vt, &ctors));
            }
        }
        let (mut paths, fuel_spent) = match outcome {
            Err(payload) => {
                spans.exit(token);
                incidents.push((entry, IncidentKind::Panicked(panic_message(&*payload))));
                continue;
            }
            Ok((_, ExecStatus::FuelExhausted, _)) => {
                spans.exit(token);
                incidents.push((entry, IncidentKind::FuelExhausted));
                continue;
            }
            Ok((paths, ExecStatus::Completed, fuel_spent)) => {
                metrics.add(names::ANALYSIS_FUEL_SPENT, fuel_spent);
                (paths, fuel_spent)
            }
        };
        if let Some(labels) = canonical {
            for p in &mut paths {
                for s in &mut p.subobjects {
                    for e in &mut s.events {
                        *e = labels.canonical_event(*e);
                    }
                }
            }
        }

        // The function's tracelet contributions, windowed and
        // fingerprinted once, as one execution the live pools and the
        // cache entry share: `targets` holds each sub's typing vtable
        // (`None` = host-entry view). A host-entry view of a function no
        // vtable hosts is kept only for the cache entry.
        let keep_entry_views = hosts.len() > 0 || cached_as.is_some();
        targets.clear();
        let mut subs = Vec::new();
        for path in &paths {
            for sub in &path.subobjects {
                let entry_view = sub.view.obj == ObjId::ENTRY && sub.view.base == 0;
                let kept = sub.vtable.is_some() || entry_view && keep_entry_views;
                if sub.events.is_empty() || !kept {
                    continue;
                }
                targets.push(sub.vtable);
                subs.push(CachedSub::new(None, windows(&sub.events, config.tracelet_len)));
            }
        }
        let mut exec = CachedExec { subs, fuel_spent };
        let store_as =
            cached_as.filter(|(labels, ..)| label_subs(labels, &targets, &mut exec.subs));
        let exec = Arc::new(exec);
        if let Some((_, cache, key)) = store_as {
            cache.store(key, Arc::clone(&exec));
        }
        for (index, &target) in targets.iter().enumerate() {
            attribute(&mut tracelets, target, &exec, index, hosts.clone());
        }
        spans.exit(token);
    }
    // Ctors answered from the cache, skipped, panicked or run under
    // another fuel budget are executed for their evidence.
    let pinned = ctor_pins_reusing(loaded, &ctors, config, &evidence);
    Analysis { tracelets, ctors, pinned, incidents }
}

/// The driver under `hooks`, with raw calls, no cache and no
/// instrumentation.
#[cfg(test)]
pub(crate) fn hooked(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
    hooks: &dyn AnalysisHooks,
) -> Analysis {
    let (mut spans, mut metrics) = (LocalSpans::disabled(), MetricsRegistry::new());
    extract_tracelets_with(loaded, config, hooks, &mut spans, &mut metrics, CallEvents::Raw, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_minicpp::{compile, CompileOptions, Expr, ProgramBuilder};

    fn load(p: ProgramBuilder, opts: &CompileOptions) -> (LoadedBinary, rock_minicpp::Compiled) {
        let compiled = compile(&p.finish(), opts).unwrap();
        let loaded = LoadedBinary::load(compiled.stripped_image()).unwrap();
        (loaded, compiled)
    }

    #[test]
    fn windows_split() {
        let e: Vec<Event> = (0..10).map(Event::C).collect();
        let w = windows(&e, 7);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].len(), 7);
        assert_eq!(w[1].len(), 3);
        assert!(windows(&[], 7).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        windows(&[Event::Ret], 0);
    }

    #[test]
    fn driver_usage_is_attributed_to_constructed_type() {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A");
            f.vcall("a", "m0", vec![]);
            f.vcall("a", "m0", vec![]);
            f.ret();
        });
        let (loaded, compiled) = load(p, &CompileOptions::default());
        let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
        let vt = compiled.vtable_of("A").unwrap();
        let ts = analysis.tracelets().of_type(vt);
        assert!(!ts.is_empty());
        // Some tracelet contains two C(0) events (the two dispatches).
        let has_double_dispatch =
            ts.iter().any(|t| t.iter().filter(|e| **e == Event::C(0)).count() >= 2);
        assert!(has_double_dispatch, "tracelets: {ts:?}");
    }

    #[test]
    fn event_table_interns_the_global_alphabet() {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A");
            f.vcall("a", "m0", vec![]);
            f.ret();
        });
        let (loaded, _) = load(p, &CompileOptions::default());
        let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
        let table = analysis.event_table();
        assert!(!table.is_empty());
        // Every event of every tracelet is interned, ids round-trip, and
        // the iteration order is ascending Ord (= id) order.
        for vt in analysis.tracelets().types() {
            for t in analysis.tracelets().of_type(vt) {
                for e in t.iter() {
                    let id = table.id_of(e).expect("observed event must intern");
                    assert_eq!(table.resolve(id), Some(e));
                }
            }
        }
        let ids: Vec<Event> = table.iter().copied().collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn inlined_ctor_build_still_types_objects() {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.class("B").base("A").method("m1", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("b", "B");
            f.vcall("b", "m1", vec![]);
            f.ret();
        });
        let mut opts = CompileOptions::default();
        opts.inline_parent_ctors = true;
        let (loaded, compiled) = load(p, &opts);
        let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
        let vt_b = compiled.vtable_of("B").unwrap();
        assert!(!analysis.tracelets().of_type(vt_b).is_empty());
    }

    #[test]
    fn method_bodies_attribute_to_all_hosting_vtables() {
        // B inherits A::m unchanged, so A::m sits in both vtables and its
        // body tracelets (field write) count for both types.
        let mut p = ProgramBuilder::new();
        p.class("A").field("x").method("m", |b| {
            b.write("this", "x", Expr::Const(1));
            b.ret();
        });
        p.class("B").base("A").method("extra", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A");
            f.new_obj("b", "B");
            f.vcall("a", "m", vec![]);
            f.vcall("b", "m", vec![]);
            f.ret();
        });
        let (loaded, compiled) = load(p, &CompileOptions::default());
        let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
        let vt_a = compiled.vtable_of("A").unwrap();
        let vt_b = compiled.vtable_of("B").unwrap();
        let has_w8 = |vt| analysis.tracelets().of_type(vt).iter().any(|t| t.contains(&Event::W(8)));
        assert!(has_w8(vt_a), "A should see W(8) from its method body");
        assert!(has_w8(vt_b), "B inherits the method, so it sees W(8) too");
    }

    #[test]
    fn ctor_recognition_feeds_call_site_typing() {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A"); // heap: call __alloc, call A::A
            f.vcall("a", "m", vec![]);
            f.ret();
        });
        let (loaded, compiled) = load(p, &CompileOptions::default());
        let analysis = extract_tracelets(&loaded, &AnalysisConfig::default());
        // The ctor was recognized...
        assert!(!analysis.ctors().is_empty());
        // ...and the driver's object got typed + usage recorded.
        let vt = compiled.vtable_of("A").unwrap();
        let ts = analysis.tracelets().of_type(vt);
        let mentions_dispatch = ts.iter().any(|t| t.contains(&Event::C(0)));
        assert!(mentions_dispatch, "tracelets: {ts:?}");
    }

    #[test]
    fn stats_aggregate_correctly() {
        let mut tt = TypeTracelets::default();
        let vt = Addr::new(0x2000);
        tt.add(vt, vec![Event::C(0), Event::C(0), Event::R(8)].into());
        tt.add(vt, vec![Event::This, Event::Ret].into());
        let s = tt.stats_of(vt);
        assert_eq!(s.tracelets, 2);
        assert_eq!(s.events, 5);
        assert_eq!(s.alphabet, 4, "C(0) counted once");
        assert_eq!(s.by_kind["C"], 2);
        assert_eq!(s.by_kind["R"], 1);
        assert_eq!(s.by_kind["this"], 1);
        assert_eq!(s.by_kind["ret"], 1);
        assert!(s.to_string().contains("2 tracelets"));
        // Unknown type: all-zero stats.
        let z = tt.stats_of(Addr::new(0x9999));
        assert_eq!(z.tracelets, 0);
        assert_eq!(z.alphabet, 0);
    }

    fn hierarchy_program() -> ProgramBuilder {
        let mut p = ProgramBuilder::new();
        p.class("A").method("m0", |b| {
            b.ret();
        });
        p.class("B").base("A").method("m1", |b| {
            b.ret();
        });
        p.func("drive", |f| {
            f.new_obj("a", "A");
            f.new_obj("b", "B");
            f.vcall("a", "m0", vec![]);
            f.vcall("b", "m1", vec![]);
            f.ret();
        });
        p
    }

    #[test]
    fn clean_hooks_change_nothing() {
        let (loaded, _) = load(hierarchy_program(), &CompileOptions::default());
        let plain = extract_tracelets(&loaded, &AnalysisConfig::default());
        let with_hooks = hooked(&loaded, &AnalysisConfig::default(), &NoHooks);
        assert_eq!(plain, with_hooks);
        assert!(plain.incidents().is_empty());
    }

    #[test]
    fn panicking_function_is_contained_and_equals_a_skip() {
        struct FaultOne(Addr, FunctionDirective);
        impl AnalysisHooks for FaultOne {
            fn before_function(&self, f: Addr) -> FunctionDirective {
                if f == self.0 {
                    self.1
                } else {
                    FunctionDirective::Run
                }
            }
        }
        let (loaded, _) = load(hierarchy_program(), &CompileOptions::default());
        let victim = loaded.functions()[0].entry();
        let cfg = AnalysisConfig::default();
        let panicked = hooked(&loaded, &cfg, &FaultOne(victim, FunctionDirective::Panic));
        let skipped = hooked(&loaded, &cfg, &FaultOne(victim, FunctionDirective::Skip));
        let starved =
            hooked(&loaded, &cfg, &FaultOne(victim, FunctionDirective::Fuel(Budget::steps(0))));
        // All three isolation paths exclude the function identically.
        assert_eq!(panicked.tracelets(), skipped.tracelets());
        assert_eq!(panicked.tracelets(), starved.tracelets());
        // Each records exactly one incident against the victim.
        for (a, kind) in
            [(&panicked, "panicked"), (&skipped, "skipped"), (&starved, "fuel exhausted")]
        {
            assert_eq!(a.incidents().len(), 1);
            assert_eq!(a.incidents()[0].0, victim);
            assert!(a.incidents()[0].1.to_string().contains(kind));
        }
    }

    #[test]
    fn skipping_every_function_yields_empty_pools_not_a_panic() {
        struct SkipAll;
        impl AnalysisHooks for SkipAll {
            fn before_function(&self, _: Addr) -> FunctionDirective {
                FunctionDirective::Skip
            }
        }
        let (loaded, _) = load(hierarchy_program(), &CompileOptions::default());
        let a = hooked(&loaded, &AnalysisConfig::default(), &SkipAll);
        assert!(a.tracelets().is_empty());
        assert_eq!(a.incidents().len(), loaded.functions().len());
    }

    #[test]
    fn type_tracelets_accessors() {
        let mut tt = TypeTracelets::default();
        assert!(tt.is_empty());
        tt.add(Addr::new(0x2000), vec![Event::C(0)].into());
        tt.add(Addr::new(0x2000), Vec::new().into()); // ignored
        tt.add(Addr::new(0x3000), vec![Event::Ret].into());
        assert_eq!(tt.total(), 2);
        assert_eq!(tt.of_type(Addr::new(0x2000)).len(), 1);
        assert_eq!(tt.of_type(Addr::new(0x9999)).len(), 0);
        assert_eq!(tt.types().count(), 2);
        assert!(tt.to_string().contains("type @0x2000"));
    }
}

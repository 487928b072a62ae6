//! The behavioral analysis in its plainest flow, kept as a test oracle
//! for `extract_tracelets_*`: the ctor pre-pass executes every function
//! against an empty map, the tracelet pass executes every function again
//! under its hook directive, and rule 3's pins come from a third
//! execution of every ctor-like function. The analysis shares these
//! executions instead: the pre-pass skips functions that cannot store a
//! vtable pointer, and the pins are read off the tracelet pass. This
//! crate's unit tests and the root `analysis_oracle` integration test
//! share this file.

use std::collections::BTreeMap;

use rock_analysis::{
    execute_function, execute_function_metered, recognize_ctors, Analysis, AnalysisConfig,
    AnalysisHooks, ContentLabels, CtorMap, Event, ExecStatus, FunctionDirective, IncidentKind,
    ObjId, TypeTracelets,
};
use rock_binary::Addr;
use rock_loader::LoadedBinary;

/// What the plain flow computes.
#[derive(Debug)]
pub struct Reference {
    /// Each ctor-like function's sorted `(offset, vtable)` stores.
    pub ctors: BTreeMap<Addr, Vec<(i32, Addr)>>,
    /// The pools.
    pub tracelets: TypeTracelets,
    /// Functions that contributed nothing and why, in function order.
    pub incidents: Vec<(Addr, IncidentKind)>,
    /// Fuel of the completed tracelet-pass executions.
    pub fuel_spent: u64,
    /// Rule 3's child → parent pins.
    pub pinned: BTreeMap<Addr, Addr>,
}

/// The stores of every ctor-like function of `map`.
pub fn stores(map: &CtorMap) -> BTreeMap<Addr, Vec<(i32, Addr)>> {
    map.functions().map(|f| (f, map.stores_of(f).unwrap_or_default().to_vec())).collect()
}

/// Runs the plain flow over `loaded`. With `labels`, call events are
/// rewritten to content labels, as canonical extraction does.
///
/// The tracelet pass needs the recognized map as a [`CtorMap`]: it takes
/// [`recognize_ctors`]' after asserting that it equals the pre-pass's.
pub fn reference(
    loaded: &LoadedBinary,
    config: &AnalysisConfig,
    hooks: &dyn AnalysisHooks,
    labels: Option<&ContentLabels>,
) -> Reference {
    let empty = CtorMap::default();
    let mut ctor_stores = BTreeMap::new();
    for f in loaded.functions() {
        let mut found: Vec<(i32, Addr)> = Vec::new();
        for path in execute_function(f, loaded, &empty, config) {
            for sub in &path.subobjects {
                if sub.view.obj == ObjId::ENTRY {
                    if let Some(vt) = sub.vtable {
                        if !found.contains(&(sub.view.base, vt)) {
                            found.push((sub.view.base, vt));
                        }
                    }
                }
            }
        }
        if !found.is_empty() {
            found.sort();
            ctor_stores.insert(f.entry(), found);
        }
    }
    let ctors = recognize_ctors(loaded, config);
    assert_eq!(stores(&ctors), ctor_stores, "the pre-pass filter dropped a ctor");

    let mut tracelets = TypeTracelets::default();
    let mut incidents = Vec::new();
    let mut fuel_spent = 0;
    for f in loaded.functions() {
        let entry = f.entry();
        let mut cfg = *config;
        match hooks.before_function(entry) {
            FunctionDirective::Run => {}
            FunctionDirective::Skip => {
                incidents.push((entry, IncidentKind::Skipped));
                continue;
            }
            FunctionDirective::Panic => {
                let message = format!("injected fault: behavioral analysis of {entry}");
                incidents.push((entry, IncidentKind::Panicked(message)));
                continue;
            }
            FunctionDirective::Fuel(b) => cfg.fuel = b,
        }
        let (paths, status, fuel) = execute_function_metered(f, loaded, &ctors, &cfg);
        match status {
            ExecStatus::Completed => fuel_spent += fuel,
            ExecStatus::FuelExhausted => {
                incidents.push((entry, IncidentKind::FuelExhausted));
                continue;
            }
            ExecStatus::DeadlineExceeded => {
                incidents.push((entry, IncidentKind::DeadlineExceeded));
                continue;
            }
        }
        for sub in paths.iter().flat_map(|p| &p.subobjects) {
            let events: Vec<Event> = match labels {
                Some(labels) => sub.events.iter().map(|&e| labels.canonical_event(e)).collect(),
                None => sub.events.clone(),
            };
            let pools: Vec<Addr> = match sub.vtable {
                Some(vt) => vec![vt],
                None if sub.view.obj == ObjId::ENTRY && sub.view.base == 0 => {
                    loaded.vtables_containing(entry).map(|vt| vt.addr()).collect()
                }
                None => Vec::new(),
            };
            for vt in pools {
                for window in events.chunks(config.tracelet_len) {
                    tracelets.add(vt, window.into());
                }
            }
        }
    }

    let mut pinned = BTreeMap::new();
    for f in loaded.functions() {
        let Some(own_vt) = ctors.primary_vtable_of(f.entry()) else {
            continue;
        };
        for path in execute_function(f, loaded, &ctors, config) {
            for sub in &path.subobjects {
                if sub.view.obj != ObjId::ENTRY || sub.view.base != 0 {
                    continue;
                }
                for ev in &sub.events {
                    if let Event::Call(g) = ev {
                        if let Some(parent_vt) = ctors.primary_vtable_of(*g) {
                            if parent_vt != own_vt {
                                pinned.insert(own_vt, parent_vt);
                            }
                        }
                    }
                }
            }
        }
    }
    Reference { ctors: ctor_stores, tracelets, incidents, fuel_spent, pinned }
}

/// Asserts that `analysis`, whose run recorded `fuel_spent`, is what the
/// plain flow computes.
pub fn assert_matches(analysis: &Analysis, fuel_spent: u64, r: &Reference, what: &str) {
    assert_eq!(stores(analysis.ctors()), r.ctors, "{what}: ctors");
    assert_eq!(analysis.tracelets(), &r.tracelets, "{what}: pools");
    let by_len = analysis.tracelets().count_by_len();
    assert_eq!(by_len, r.tracelets.count_by_len(), "{what}: tracelets per length");
    assert_eq!(analysis.incidents(), r.incidents.as_slice(), "{what}: incidents");
    assert_eq!(fuel_spent, r.fuel_spent, "{what}: fuel spent");
    assert_eq!(analysis.pinned(), &r.pinned, "{what}: pins");
}

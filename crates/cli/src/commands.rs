//! Command implementations for the `rock` CLI.

use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;

use rock_binary::{image_from_bytes, image_to_bytes, Addr, BinaryImage};
use rock_budget::RetryPolicy;
use rock_core::suite::{all_benchmarks, benchmark};
use rock_core::{evaluate, render_table2, Parallelism, Rock, RockConfig, Table2Row};
use rock_loader::LoadedBinary;
use rock_slm::Metric;
use rock_supervisor::{ArtifactStore, StdVfs, Supervisor, SupervisorOptions};
use rock_trace::{
    chrome_trace_json, json_escape, names, validate_chrome_trace, validate_metrics_doc, TraceLevel,
    Tracer,
};

type CliResult = Result<(), Box<dyn Error>>;

/// How `--timings[=json]` renders (shared by `reconstruct` and `batch`;
/// see [`emit_timings`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimingsFormat {
    Text,
    Json,
}

/// Parses a `--timings` / `--timings=json` flag occurrence.
fn parse_timings_flag(arg: &str) -> Result<TimingsFormat, Box<dyn Error>> {
    match arg {
        "--timings" => Ok(TimingsFormat::Text),
        "--timings=json" => Ok(TimingsFormat::Json),
        other => {
            Err(format!("bad timings flag {other:?} (use --timings or --timings=json)").into())
        }
    }
}

/// The one timings formatter: `reconstruct` and `batch` both go through
/// here, so the two surfaces can never drift apart again. `label` tags
/// batch per-job lines; empty for single reconstructions.
fn emit_timings(label: &str, timings: &rock_core::StageTimings, format: TimingsFormat) {
    match format {
        TimingsFormat::Text => {
            if !label.is_empty() {
                println!("[{label}]");
            }
            println!("{timings}");
        }
        TimingsFormat::Json if label.is_empty() => println!("{}", timings.to_json()),
        TimingsFormat::Json => {
            println!("{{\"job\":\"{}\",\"timings\":{}}}", json_escape(label), timings.to_json());
        }
    }
}

/// Parses a `--trace-level` value (`off|stage|sampled|full`).
fn parse_trace_level(v: &str) -> Result<TraceLevel, String> {
    TraceLevel::parse(v)
        .ok_or_else(|| format!("unknown trace level {v:?} (off|stage|sampled|full)"))
}

/// Writes a validated Chrome-trace document for `tracer` to `path`.
fn write_trace(path: &str, tracer: &Tracer) -> CliResult {
    let doc = chrome_trace_json(&tracer.events());
    validate_chrome_trace(&doc).map_err(|e| format!("internal: invalid trace export: {e}"))?;
    fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "wrote {path}: chrome trace, {} events (load via chrome://tracing)",
        tracer.events().len()
    );
    Ok(())
}

const USAGE: &str = "usage: rock <list|gen|info|disasm|vtables|families|reconstruct|pseudo|run|stats|eval|table2|batch|serve|client|store> ...
run `rock help` for details";

/// Dispatches one CLI invocation; `Ok` carries the process exit code
/// (always `0` except for `batch`, whose typed codes surface degraded,
/// failed and deadline-blown jobs, and a preload that met corrupt
/// sub-artifacts — see the README).
pub fn dispatch(args: &[String]) -> Result<u8, Box<dyn Error>> {
    let ok = |r: CliResult| r.map(|()| 0u8);
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        Some("list") => ok(cmd_list()),
        Some("gen") => ok(cmd_gen(&args[1..])),
        Some("info") => ok(cmd_info(&args[1..])),
        Some("disasm") => ok(cmd_disasm(&args[1..])),
        Some("vtables") => ok(cmd_vtables(&args[1..])),
        Some("families") => ok(cmd_families(&args[1..])),
        Some("reconstruct") => ok(cmd_reconstruct(&args[1..])),
        Some("pseudo") => ok(cmd_pseudo(&args[1..])),
        Some("run") => ok(cmd_run(&args[1..])),
        Some("stats") => ok(cmd_stats(&args[1..])),
        Some("eval") => ok(cmd_eval(&args[1..])),
        Some("table2") => ok(cmd_table2(&args[1..])),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
}

fn load_file(path: &str) -> Result<LoadedBinary, Box<dyn Error>> {
    let data = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let image = image_from_bytes(&data)?;
    Ok(LoadedBinary::load(image)?)
}

/// Best-effort load: malformed sections degrade to recorded issues on a
/// partial binary instead of an error (used by `reconstruct` unless
/// `--strict`).
fn load_file_lenient(path: &str) -> Result<LoadedBinary, Box<dyn Error>> {
    let data = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let image = image_from_bytes(&data)?;
    Ok(LoadedBinary::load_lenient(image))
}

fn cmd_list() -> CliResult {
    println!("{:<18} {:>5}  structurally resolvable", "benchmark", "types");
    for b in all_benchmarks() {
        println!(
            "{:<18} {:>5}  {}",
            b.name,
            b.paper.types,
            if b.structurally_resolvable { "yes" } else { "no" }
        );
    }
    println!("(plus examples: streams, datasource)");
    Ok(())
}

fn find_benchmark(name: &str) -> Result<rock_core::suite::Benchmark, Box<dyn Error>> {
    match name {
        "streams" => Ok(rock_core::suite::streams_example()),
        "datasource" => Ok(rock_core::suite::datasource_example()),
        _ => benchmark(name)
            .ok_or_else(|| format!("unknown benchmark {name:?}; run `rock list`").into()),
    }
}

fn cmd_gen(args: &[String]) -> CliResult {
    let mut keep_debug = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--keep-debug" => keep_debug = true,
            other if other.starts_with("--") => {
                return Err(format!("gen: unknown flag {other}").into())
            }
            other => positional.push(other),
        }
    }
    let [name, out] = positional[..] else {
        return Err("usage: rock gen <benchmark> <out.rkb> [--keep-debug]".into());
    };
    let bench = find_benchmark(name)?;
    let compiled = bench.compile()?;
    let image: BinaryImage =
        if keep_debug { compiled.image().clone() } else { compiled.stripped_image() };
    fs::write(out, image_to_bytes(&image))?;
    println!(
        "wrote {out}: {} bytes, {} ({})",
        image.size(),
        bench.name,
        if keep_debug { "with debug info" } else { "stripped" }
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock info <file.rkb>".into()) };
    let loaded = load_file(path)?;
    print!("{}", loaded.image());
    println!("functions: {}", loaded.functions().len());
    println!("vtables (binary types): {}", loaded.vtables().len());
    if !loaded.image().is_stripped() {
        println!("NOTE: image carries debug info ({} RTTI records)", loaded.image().rtti().len());
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock disasm <file.rkb>".into()) };
    let loaded = load_file(path)?;
    for f in loaded.functions() {
        let name = loaded
            .image()
            .symbols()
            .at(f.entry())
            .map(|s| format!(" <{}>", s.name))
            .unwrap_or_default();
        println!("fn @{}{name}:", f.entry());
        for d in f.instrs() {
            println!("  {d}");
        }
    }
    Ok(())
}

fn cmd_vtables(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock vtables <file.rkb>".into()) };
    let loaded = load_file(path)?;
    for vt in loaded.vtables() {
        let name = loaded
            .image()
            .symbols()
            .at(vt.addr())
            .map(|s| format!(" <{}>", s.name))
            .unwrap_or_default();
        println!("vtable @{}{name} ({} slots)", vt.addr(), vt.len());
        for (i, slot) in vt.slots().iter().enumerate() {
            println!("  [{i}] -> {slot}");
        }
    }
    Ok(())
}

fn cmd_families(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock families <file.rkb>".into()) };
    let loaded = load_file(path)?;
    let config = RockConfig::paper();
    let ctors = rock_analysis::recognize_ctors(&loaded, &config.analysis);
    let pinned = rock_analysis::ctor_pins(&loaded, &ctors, &config.analysis);
    let s = rock_structural::analyze(&loaded, &ctors, &pinned);
    print!("{s}");
    println!("phase II eliminations: {}", s.stats());
    println!("ctor-like functions: {}", ctors.len());
    println!("pinned parents: {}", s.pinned().len());
    println!(
        "structurally resolved: {} ({} candidate hierarchies)",
        s.is_structurally_resolved(),
        s.candidate_hierarchies()
    );
    for fam in s.families() {
        for &vt in fam {
            let candidates = s.possible_parents().of(vt);
            if candidates.len() > 1 {
                let list: Vec<String> = candidates.iter().map(ToString::to_string).collect();
                println!("  ambiguous: {vt} <- {{{}}}", list.join(", "));
            }
        }
    }
    Ok(())
}

/// `rock stats <file.rkb>` — behavioral-analysis statistics per type.
fn cmd_stats(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock stats <file.rkb>".into()) };
    let loaded = load_file(path)?;
    let config = RockConfig::paper();
    let analysis = rock_analysis::extract_tracelets(&loaded, &config.analysis);
    for vt in loaded.vtables() {
        let name = loaded
            .image()
            .symbols()
            .at(vt.addr())
            .map(|s| s.name.clone())
            .unwrap_or_else(|| vt.addr().to_string());
        println!("{name}: {}", analysis.tracelets().stats_of(vt.addr()));
    }
    println!(
        "total: {} tracelets over {} types; {} ctor-like functions",
        analysis.tracelets().total(),
        analysis.tracelets().types().count(),
        analysis.ctors().len()
    );
    Ok(())
}

/// `rock run <file.rkb> <function> [word args...]` — execute a function
/// in the reference interpreter. Needs an unstripped image (the VM
/// locates the allocator via symbols).
fn cmd_run(args: &[String]) -> CliResult {
    let [path, func, rest @ ..] = args else {
        return Err("usage: rock run <file.rkb> <function> [args...]".into());
    };
    let loaded = load_file(path)?;
    let entry = loaded
        .image()
        .symbols()
        .by_name(func)
        .map(|s| s.addr)
        .ok_or_else(|| format!("no symbol {func:?} (stripped image? use gen --keep-debug)"))?;
    let vm_args: Vec<u64> = rest
        .iter()
        .map(|a| a.parse::<u64>().map_err(|e| format!("bad argument {a:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut vm = rock_vm::Machine::new(loaded.image().clone())?;
    let outcome = vm.run(entry, &vm_args)?;
    println!(
        "{func} returned {} after {} steps{}",
        outcome.return_value,
        outcome.steps,
        if outcome.halted { " (halted)" } else { "" }
    );
    println!("trace ({} events):", vm.trace().len());
    for e in vm.trace().events() {
        println!("  {e}");
    }
    Ok(())
}

fn cmd_pseudo(args: &[String]) -> CliResult {
    let [path] = args else { return Err("usage: rock pseudo <file.rkb>".into()) };
    let loaded = load_file(path)?;
    let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
    print!("{}", rock_core::pseudo_source(&loaded, &recon));
    Ok(())
}

fn parse_metric(s: &str) -> Result<Metric, Box<dyn Error>> {
    match s {
        "kl" => Ok(Metric::KlDivergence),
        "js" => Ok(Metric::JsDivergence),
        "jsd" => Ok(Metric::JsDistance),
        other => Err(format!("unknown metric {other:?} (kl|js|jsd)").into()),
    }
}

fn cmd_reconstruct(args: &[String]) -> CliResult {
    let mut dot = false;
    let mut timings: Option<TimingsFormat> = None;
    let mut diagnostics = false;
    let mut strict = false;
    let mut fuel = None;
    let mut metric = Metric::KlDivergence;
    let mut parallelism = Parallelism::Auto;
    let mut trace_path: Option<String> = None;
    // Production default: deterministic 1-in-16 span sampling. Use
    // `--trace-level full` for complete trees (golden/determinism runs).
    let mut trace_level = TraceLevel::Sampled;
    // None: off; Some(None): stdout; Some(Some(p)): write to file p.
    let mut metrics_out: Option<Option<String>> = None;
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dot" => dot = true,
            "--timings" | "--timings=json" => timings = Some(parse_timings_flag(a)?),
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs an output path")?.clone());
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs a value (off|stage|sampled|full)")?;
                trace_level = parse_trace_level(v)?;
            }
            "--metrics" => metrics_out = Some(None),
            "--diagnostics" => diagnostics = true,
            "--strict" => strict = true,
            "--metric" => {
                let v = it.next().ok_or("--metric needs a value")?;
                metric = parse_metric(v)?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value (count, or 0 for auto)")?;
                let n: usize = v.parse().map_err(|e| format!("bad thread count {v:?}: {e}"))?;
                parallelism = if n == 0 { Parallelism::Auto } else { Parallelism::Threads(n) };
            }
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a value (steps per function)")?;
                let n: u64 = v.parse().map_err(|e| format!("bad fuel {v:?}: {e}"))?;
                fuel = Some(rock_analysis::Budget::steps(n));
            }
            other if other.starts_with("--metrics=") => {
                metrics_out = Some(Some(other["--metrics=".len()..].to_string()));
            }
            other if other.starts_with("--") => {
                return Err(format!("reconstruct: unknown flag {other}").into())
            }
            other => path = Some(other.to_string()),
        }
    }
    let path = path.ok_or(
        "usage: rock reconstruct <file.rkb> [--metric kl|js|jsd] [--threads n] [--fuel steps] \
         [--timings[=json]] [--trace <out.json>] [--trace-level off|stage|sampled|full] \
         [--metrics[=path]] [--diagnostics] [--strict] [--dot]",
    )?;
    // Lenient by default: a damaged image degrades to a partial binary
    // with recorded issues; --strict restores the old fail-fast load.
    let loaded = if strict { load_file(&path)? } else { load_file_lenient(&path)? };
    let mut config = RockConfig::with_metric(metric).with_parallelism(parallelism);
    if strict {
        config = config.with_strict();
    }
    if let Some(budget) = fuel {
        config.analysis.fuel = budget;
    }
    let tracer = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));
    let mut rock = Rock::new(config).with_trace_level(trace_level);
    if let Some(t) = &tracer {
        rock = rock.with_tracer(t.clone());
    }
    let recon = rock.try_reconstruct(&loaded)?;
    // Label with symbols when available (unstripped input), else addresses.
    let label = |a: Addr| -> String {
        loaded.image().symbols().at(a).map(|s| s.name.clone()).unwrap_or_else(|| a.to_string())
    };
    if dot {
        println!("{}", hierarchy_dot(&recon, &label));
    } else {
        let named = recon.hierarchy.map(|a| label(*a));
        print!("{named}");
        println!("({} types, metric {metric})", recon.hierarchy.len());
    }
    if let Some(format) = timings {
        emit_timings("", &recon.timings, format);
    }
    if let (Some(path), Some(tracer)) = (&trace_path, &tracer) {
        write_trace(path, tracer)?;
    }
    if let Some(dest) = metrics_out {
        let doc = recon.metrics.to_json();
        validate_metrics_doc(&doc).map_err(|e| format!("internal: invalid metrics doc: {e}"))?;
        match dest {
            None => println!("{doc}"),
            Some(path) => {
                fs::write(&path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}: metrics schema v1, {} bytes", doc.len());
            }
        }
    }
    if diagnostics {
        println!("{}", recon.coverage);
        if recon.diagnostics.is_empty() {
            println!("diagnostics: none");
        } else {
            println!("diagnostics ({}):", recon.diagnostics.len());
            for e in &recon.diagnostics {
                println!("  {e}");
            }
        }
    }
    Ok(())
}

/// Graphviz rendering of a reconstructed hierarchy.
fn hierarchy_dot(recon: &rock_core::Reconstruction, label: &dyn Fn(Addr) -> String) -> String {
    let mut out = String::from("digraph hierarchy {\n  rankdir=BT;\n");
    for node in recon.hierarchy.nodes() {
        let _ = writeln!(out, "  \"{}\";", label(*node));
        if let Some(p) = recon.hierarchy.parent_of(node) {
            let _ = writeln!(out, "  \"{}\" -> \"{}\";", label(*node), label(*p));
        }
    }
    out.push('}');
    out
}

fn cmd_eval(args: &[String]) -> CliResult {
    let [name] = args else { return Err("usage: rock eval <benchmark>".into()) };
    let bench = find_benchmark(name)?;
    let compiled = bench.compile()?;
    let loaded = LoadedBinary::load(compiled.stripped_image())?;
    let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
    let eval = evaluate(&compiled, &recon);
    println!("{}", bench.name);
    print!("{eval}");
    println!(
        "paper: without {:.2}/{:.2}, with {:.2}/{:.2}",
        bench.paper.without.0, bench.paper.without.1, bench.paper.with.0, bench.paper.with.1
    );
    Ok(())
}

fn cmd_table2(args: &[String]) -> CliResult {
    let markdown = match args {
        [] => false,
        [flag] if flag == "--markdown" => true,
        _ => return Err("usage: rock table2 [--markdown]".into()),
    };
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        let compiled = bench.compile()?;
        let loaded = LoadedBinary::load(compiled.stripped_image())?;
        let recon = Rock::new(RockConfig::paper()).reconstruct(&loaded);
        let eval = evaluate(&compiled, &recon);
        rows.push(Table2Row::new(&bench, &eval));
    }
    if markdown {
        println!("{}", rock_core::render_table2_markdown(&rows));
    } else {
        println!("{}", render_table2(&rows));
    }
    Ok(())
}

/// `rock batch` — supervised batch reconstruction with watchdog
/// deadlines, the retry/degradation ladder, and (with `--resume` or
/// `--incremental`) sub-artifacts persisted at every stage boundary.
/// Returns the batch's typed exit code (largest per-job code, or 5 when
/// the preload skipped a corrupt sub-artifact).
fn cmd_batch(args: &[String]) -> Result<u8, Box<dyn Error>> {
    let mut store_dir = String::from(".rock-store");
    let mut resume = false;
    let mut max_retries: u32 = 3;
    let mut deadline_ms = None;
    let mut max_failures = None;
    let mut metric = Metric::KlDivergence;
    let mut parallelism = Parallelism::Auto;
    let mut strict = false;
    let mut sleep_backoff = false;
    let mut durable = false;
    let mut report_path: Option<String> = None;
    let mut timings: Option<TimingsFormat> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_level = TraceLevel::Sampled;
    let mut metrics = false;
    let mut fuel = None;
    let mut corpus_manifest: Option<String> = None;
    let mut incremental = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--resume" => resume = true,
            "--incremental" => incremental = true,
            "--strict" => strict = true,
            "--sleep-backoff" => sleep_backoff = true,
            "--durable" => durable = true,
            "--timings" | "--timings=json" => timings = Some(parse_timings_flag(a)?),
            "--metrics" => metrics = true,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs an output path")?.clone());
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs a value (off|stage|sampled|full)")?;
                trace_level = parse_trace_level(v)?;
            }
            "--store" => store_dir = it.next().ok_or("--store needs a directory")?.clone(),
            "--report" => report_path = Some(it.next().ok_or("--report needs a path")?.clone()),
            "--jobs" => {
                let list = it.next().ok_or("--jobs needs a file (one image path per line)")?;
                let text =
                    fs::read_to_string(list).map_err(|e| format!("cannot read {list}: {e}"))?;
                paths.extend(
                    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(String::from),
                );
            }
            "--corpus" => {
                let list =
                    it.next().ok_or("--corpus needs a manifest (one image path per line)")?;
                let text =
                    fs::read_to_string(list).map_err(|e| format!("cannot read {list}: {e}"))?;
                paths.extend(
                    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(String::from),
                );
                corpus_manifest = Some(list.clone());
            }
            "--max-retries" => {
                let v = it.next().ok_or("--max-retries needs a count")?;
                max_retries = v.parse().map_err(|e| format!("bad retry count {v:?}: {e}"))?;
            }
            "--deadline" => {
                let v = it.next().ok_or("--deadline needs milliseconds")?;
                deadline_ms =
                    Some(v.parse::<u64>().map_err(|e| format!("bad deadline {v:?}: {e}"))?);
            }
            "--max-errors" => {
                let v = it.next().ok_or("--max-errors needs a count")?;
                max_failures =
                    Some(v.parse::<usize>().map_err(|e| format!("bad error cap {v:?}: {e}"))?);
            }
            "--metric" => metric = parse_metric(it.next().ok_or("--metric needs a value")?)?,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value (count, or 0 for auto)")?;
                let n: usize = v.parse().map_err(|e| format!("bad thread count {v:?}: {e}"))?;
                parallelism = if n == 0 { Parallelism::Auto } else { Parallelism::Threads(n) };
            }
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a value (steps per function)")?;
                let n: u64 = v.parse().map_err(|e| format!("bad fuel {v:?}: {e}"))?;
                fuel = Some(rock_analysis::Budget::steps(n));
            }
            other if other.starts_with("--") => {
                return Err(format!("batch: unknown flag {other}").into())
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return Err("usage: rock batch <file.rkb ...> [--jobs <list>] [--corpus <manifest>] \
                    [--store <dir>] [--resume] [--incremental] [--durable] \
                    [--max-retries n] [--deadline ms] [--max-errors n] [--metric kl|js|jsd] \
                    [--threads n] [--strict] [--report <path>] [--sleep-backoff] \
                    [--timings[=json]] [--trace <out.json>] \
                    [--trace-level off|stage|sampled|full] [--metrics]"
            .into());
    }
    let mut jobs: Vec<(String, Vec<u8>)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        jobs.push((name, bytes));
    }
    let mut config = RockConfig::with_metric(metric).with_parallelism(parallelism);
    if strict {
        config = config.with_strict();
    }
    if let Some(budget) = fuel {
        config.analysis.fuel = budget;
    }
    // Corpus and incremental modes canonicalize call targets so SLM
    // training inputs are position-independent and shareable across
    // every binary in the fleet — and across edits of one binary.
    // `--resume` alone persists the same way but keeps the paper's raw
    // call events (its execution keys are bound to the image instead).
    if corpus_manifest.is_some() || incremental {
        config = config.with_canonical_calls();
    }
    let options = SupervisorOptions {
        retry: RetryPolicy::new(max_retries),
        deadline_ms,
        sleep_backoff,
        max_failures,
        collect_metrics: metrics,
        incremental: incremental || resume,
    };
    // `--durable` trades latency for crash safety: each sub-artifact is
    // fsynced (file + directory) before its commit rename counts.
    // `--sleep-backoff` also makes *store* retries sleep their curve.
    let store = ArtifactStore::open_with(&store_dir, StdVfs::arc(), durable)?
        .with_sleep_backoff(sleep_backoff);
    let tracer = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));
    let mut supervisor = Supervisor::new(config, store, options).with_trace_level(trace_level);
    if let Some(t) = &tracer {
        supervisor = supervisor.with_tracer(t.clone());
    }
    // `--resume` and `--incremental` get a private corpus cache from
    // the supervisor: it is the in-memory face of the persisted store.
    if corpus_manifest.is_some() && supervisor.corpus().is_none() {
        supervisor = supervisor.with_corpus(Arc::new(rock_core::CorpusCache::new()));
    }
    let start = std::time::Instant::now();
    let batch = supervisor.run_batch(&jobs);
    let elapsed = start.elapsed();
    for job in &batch.jobs {
        println!("{}", job.report.to_json());
    }
    if let Some(n) = batch.aborted_after {
        eprintln!("batch aborted after {n}/{} jobs (--max-errors reached)", jobs.len());
    }
    if let Some(path) = report_path {
        let mut out = String::from("{\"jobs\":[");
        for (i, job) in batch.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&job.report.to_json());
        }
        let _ = write!(
            out,
            "],\"exit_code\":{},\"elapsed_ms\":{}}}",
            batch.exit_code,
            elapsed.as_millis()
        );
        fs::write(&path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let (Some(path), Some(tracer)) = (&trace_path, &tracer) {
        write_trace(path, tracer)?;
    }
    if let Some(corpus) = supervisor.corpus() {
        let s = corpus.stats();
        let c = |name| s.counter(name);
        println!(
            "corpus: tracelets {}/{} hit, slms {}/{} hit, distances {}/{} hit, \
             liftings {}/{} hit ({:.1}% overall), \
             {} bytes stored, {} corrupt entries dropped, {} evicted",
            c(names::CORPUS_TRACELET_HIT),
            c(names::CORPUS_TRACELET_HIT) + c(names::CORPUS_TRACELET_MISS),
            c(names::CORPUS_SLM_HIT),
            c(names::CORPUS_SLM_HIT) + c(names::CORPUS_SLM_MISS),
            c(names::CORPUS_DISTANCE_HIT),
            c(names::CORPUS_DISTANCE_HIT) + c(names::CORPUS_DISTANCE_MISS),
            c(names::CORPUS_LIFTING_HIT),
            c(names::CORPUS_LIFTING_HIT) + c(names::CORPUS_LIFTING_MISS),
            rock_core::corpus::hit_rate(&s) * 100.0,
            c(names::CORPUS_BYTES_STORED),
            c(names::CORPUS_CORRUPT_DROPPED),
            c(names::CORPUS_EVICTED),
        );
    }
    if let Some(incr) = &batch.incr {
        print_incr(|name| incr.counter(name));
    }
    if let Some(format) = timings {
        for job in &batch.jobs {
            if let rock_supervisor::JobOutput::Full(recon) = &job.output {
                emit_timings(&job.report.name, &recon.timings, format);
            }
        }
        let run = batch.jobs.len();
        let ms = elapsed.as_millis().max(1);
        let incr_text = batch.incr.as_ref().map_or(String::new(), |i| {
            format!(
                ", incr {} preloaded / {} flushed",
                i.counter(names::INCR_PRELOADED),
                i.counter(names::INCR_FLUSHED)
            )
        });
        let incr_json = batch.incr.as_ref().map_or(String::new(), |i| {
            format!(
                ",\"incr_preloaded\":{},\"incr_flushed\":{},\"incr_unchanged\":{},\
                 \"incr_corrupt_skipped\":{},\"incr_io_errors\":{}",
                i.counter(names::INCR_PRELOADED),
                i.counter(names::INCR_FLUSHED),
                i.counter(names::INCR_UNCHANGED),
                i.counter(names::INCR_CORRUPT_SKIPPED),
                i.counter(names::INCR_IO_ERRORS)
            )
        });
        match format {
            TimingsFormat::Text => println!(
                "batch: {run} jobs in {ms} ms ({:.1} jobs/s){incr_text}, exit code {}",
                run as f64 * 1000.0 / ms as f64,
                batch.exit_code
            ),
            TimingsFormat::Json => println!(
                "{{\"batch\":{{\"jobs\":{run},\"elapsed_ms\":{ms}{incr_json},\"exit_code\":{}}}}}",
                batch.exit_code
            ),
        }
    }
    Ok(batch.exit_code)
}

/// `rock serve`: run the multi-tenant reconstruction daemon until it is
/// drained (Drain frame or SIGTERM), then exit 0.
fn cmd_serve(args: &[String]) -> Result<u8, Box<dyn Error>> {
    let mut addr = String::from("127.0.0.1:0");
    let mut cfg = rock_serve::ServeConfig::new(".rock-store");
    let mut port_file: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str, unit: &str| -> Result<u64, Box<dyn Error>> {
            let v = it.next().ok_or_else(|| format!("{flag} needs {unit}"))?;
            Ok(v.parse::<u64>().map_err(|e| format!("bad {flag} value {v:?}: {e}"))?)
        };
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--store" => cfg.store_dir = it.next().ok_or("--store needs a directory")?.into(),
            "--port-file" => {
                port_file = Some(it.next().ok_or("--port-file needs a path")?.clone());
            }
            "--queue" => cfg.queue_capacity = num("--queue", "a capacity")? as usize,
            "--workers" => cfg.workers = num("--workers", "a thread count")? as usize,
            "--quota-burst" => cfg.quota.burst = num("--quota-burst", "a token count")?,
            "--quota-refill" => {
                cfg.quota.refill_per_sec = num("--quota-refill", "tokens per second")?;
            }
            "--max-inflight" => {
                cfg.quota.max_inflight = num("--max-inflight", "a job count")?;
            }
            "--deadline" => {
                cfg.options.deadline_ms = Some(num("--deadline", "milliseconds")?);
            }
            "--corpus-cap" => {
                cfg.corpus_capacity =
                    num("--corpus-cap", "entries per tier (0=unbounded)")? as usize;
            }
            "--max-image-bytes" => {
                cfg.max_image_bytes = num("--max-image-bytes", "a byte count")? as usize;
            }
            "--send-budget" => {
                cfg.send_budget_bytes =
                    num("--send-budget", "bytes per connection (0=unlimited)")? as usize;
            }
            "--idle-timeout" => cfg.idle_timeout_ms = num("--idle-timeout", "milliseconds")?,
            "--durable" => cfg.durable = true,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs an output path")?.clone());
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs a value (off|stage|sampled|full)")?;
                cfg.trace_level = parse_trace_level(v)?;
            }
            other => {
                return Err(format!(
                    "serve: unknown argument {other}\nusage: rock serve [--addr host:port] \
                     [--store <dir>] [--port-file <path>] [--queue n] [--workers n] \
                     [--quota-burst n] [--quota-refill n/s] [--max-inflight n] [--deadline ms] \
                     [--corpus-cap n] [--max-image-bytes n] [--send-budget n] \
                     [--idle-timeout ms] [--durable] [--trace <out.json>] \
                     [--trace-level off|stage|sampled|full]"
                )
                .into())
            }
        }
    }
    let tracer = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));
    cfg.tracer = tracer.clone();
    rock_serve::signals::install_termination_handler();
    let server = rock_serve::Server::bind(cfg, &addr)?;
    let handle = server.handle();
    let bound = server.local_addr()?;
    if let Some(path) = &port_file {
        fs::write(path, bound.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("rock serve: listening on {bound}");
    let summary = server.run()?;
    if let (Some(path), Some(tracer)) = (&trace_path, &tracer) {
        write_trace(path, tracer)?;
    }
    println!(
        "rock serve: drained cleanly — accepted={} completed={} cancelled={} rejected={} \
         protocol_errors={} panics_contained={}",
        summary.accepted,
        summary.completed,
        summary.cancelled,
        summary.rejected,
        summary.protocol_errors,
        summary.panics_contained,
    );
    print_incr(|name| handle.counter(name));
    Ok(0)
}

/// The end-of-run `incr:` line of `rock batch` and `rock serve`, read
/// from a registry holding the `incr.*` counters.
fn print_incr(counter: impl Fn(&str) -> u64) {
    println!(
        "incr: {} preloaded, {} flushed, {} unchanged, {} corrupt skipped, {} io errors",
        counter(names::INCR_PRELOADED),
        counter(names::INCR_FLUSHED),
        counter(names::INCR_UNCHANGED),
        counter(names::INCR_CORRUPT_SKIPPED),
        counter(names::INCR_IO_ERRORS),
    );
}

/// `rock client <addr> <verb>`: loopback client for a running daemon.
fn cmd_client(args: &[String]) -> Result<u8, Box<dyn Error>> {
    const CLIENT_USAGE: &str = "usage: rock client <addr> <verb> ...
  submit <file.rkb> [--name n] [--deadline ms] [--client id] [--connect-retries n] [--wait]
  status <job>      [--client id] [--connect-retries n]
  cancel <job>      [--client id] [--connect-retries n]
  drain             [--client id] [--connect-retries n]
  hammer [--clients n] [--jobs n] [--over-quota n] [--bench name] [--slow] [--wait-ms ms]";
    let addr = args.first().ok_or(CLIENT_USAGE)?.clone();
    let verb = args.get(1).ok_or(CLIENT_USAGE)?.as_str();
    let rest = &args[2..];
    match verb {
        "submit" => client_submit(&addr, rest),
        "status" | "cancel" => client_job_query(&addr, verb, rest),
        "drain" => {
            let mut identity = String::from("rock-cli");
            let mut retries = 0u32;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--client" => {
                        identity = it.next().ok_or("--client needs an identity")?.clone();
                    }
                    "--connect-retries" => retries = parse_connect_retries(&mut it)?,
                    other => return Err(format!("client drain: unknown flag {other}").into()),
                }
            }
            let mut c = rock_serve::ServeClient::connect_with_retry(&addr, &identity, retries)?;
            let (queued, running) = c.drain()?;
            println!("drain started: {queued} queued, {running} running");
            Ok(0)
        }
        "hammer" => client_hammer(&addr, rest),
        other => Err(format!("client: unknown verb {other:?}\n{CLIENT_USAGE}").into()),
    }
}

/// Parses the value of a `--connect-retries` flag occurrence.
fn parse_connect_retries<'a>(
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<u32, Box<dyn Error>> {
    let v = it.next().ok_or("--connect-retries needs a count")?;
    Ok(v.parse().map_err(|e| format!("bad retry count {v:?}: {e}"))?)
}

fn client_submit(addr: &str, args: &[String]) -> Result<u8, Box<dyn Error>> {
    let mut name: Option<String> = None;
    let mut identity = String::from("rock-cli");
    let mut deadline_ms = 0u64;
    let mut retries = 0u32;
    let mut wait = false;
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--name" => name = Some(it.next().ok_or("--name needs a value")?.clone()),
            "--client" => identity = it.next().ok_or("--client needs an identity")?.clone(),
            "--deadline" => {
                let v = it.next().ok_or("--deadline needs milliseconds")?;
                deadline_ms = v.parse().map_err(|e| format!("bad deadline {v:?}: {e}"))?;
            }
            "--connect-retries" => retries = parse_connect_retries(&mut it)?,
            "--wait" => wait = true,
            other if other.starts_with("--") => {
                return Err(format!("client submit: unknown flag {other}").into())
            }
            other => path = Some(other.to_string()),
        }
    }
    let path = path.ok_or("client submit: needs an image file")?;
    let image = fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = name.unwrap_or_else(|| {
        std::path::Path::new(&path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone())
    });
    let mut c = rock_serve::ServeClient::connect_with_retry(addr, &identity, retries)?;
    match c.submit(&name, deadline_ms, &image)? {
        rock_serve::wire::Response::Accepted { job } => {
            println!("accepted: job {job}");
            if wait {
                let state = c.wait(job, 50, 600_000)?;
                print_job_state(job, &state);
                if let rock_serve::wire::JobState::Done { exit_code, .. } = state {
                    return Ok(exit_code);
                }
            }
            Ok(0)
        }
        rock_serve::wire::Response::Rejected { reason, detail } => {
            eprintln!("rejected ({reason}): {detail}");
            Ok(1)
        }
        other => Err(format!("unexpected response: {other:?}").into()),
    }
}

fn client_job_query(addr: &str, verb: &str, args: &[String]) -> Result<u8, Box<dyn Error>> {
    let mut identity = String::from("rock-cli");
    let mut retries = 0u32;
    let mut job: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--client" => identity = it.next().ok_or("--client needs an identity")?.clone(),
            "--connect-retries" => retries = parse_connect_retries(&mut it)?,
            other => job = Some(other.parse().map_err(|e| format!("bad job id {other:?}: {e}"))?),
        }
    }
    let job = job.ok_or_else(|| format!("client {verb}: needs a job id"))?;
    let mut c = rock_serve::ServeClient::connect_with_retry(addr, &identity, retries)?;
    let state = if verb == "cancel" { c.cancel(job)? } else { c.status(job)? };
    print_job_state(job, &state);
    Ok(0)
}

fn print_job_state(job: u64, state: &rock_serve::wire::JobState) {
    match state {
        rock_serve::wire::JobState::Done { exit_code, outcome, result_fp, report_json } => {
            println!("job {job}: done outcome={outcome} exit={exit_code} fp={result_fp:016x}");
            println!("{report_json}");
        }
        rock_serve::wire::JobState::Queued { position } => {
            println!("job {job}: queued at position {position}");
        }
        other => println!("job {job}: {}", other.name()),
    }
}

/// `rock client <addr> hammer`: the overload drill the CI smoke job
/// runs — N well-behaved tenants, one over-quota tenant, one trickling
/// slow client, all concurrent. Exits 0 iff every admitted job reached
/// a terminal `Done` state and every shed request carried a typed
/// rejection.
fn client_hammer(addr: &str, args: &[String]) -> Result<u8, Box<dyn Error>> {
    use rock_serve::wire::{JobState, RejectReason};
    let mut clients = 4usize;
    let mut jobs_per_client = 3usize;
    let mut over_quota = 8usize;
    // The daemon's per-client token burst (`--quota-burst` on `rock
    // serve`): with refill 0, everything the greedy tenant submits
    // beyond it must be quota-shed. Default matches the daemon default.
    let mut burst = 32usize;
    let mut bench = String::from("streams");
    let mut slow = false;
    let mut wait_ms = 300_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, Box<dyn Error>> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            Ok(v.parse::<u64>().map_err(|e| format!("bad {flag} value {v:?}: {e}"))?)
        };
        match a.as_str() {
            "--clients" => clients = num("--clients")? as usize,
            "--jobs" => jobs_per_client = num("--jobs")? as usize,
            "--over-quota" => over_quota = num("--over-quota")? as usize,
            "--burst" => burst = num("--burst")? as usize,
            "--wait-ms" => wait_ms = num("--wait-ms")?,
            "--slow" => slow = true,
            "--bench" => bench = it.next().ok_or("--bench needs a name")?.clone(),
            other => return Err(format!("client hammer: unknown flag {other}").into()),
        }
    }
    let image = image_to_bytes(&find_benchmark(&bench)?.compile()?.stripped_image());
    let mut threads = Vec::new();
    // Well-behaved tenants: distinct identities, rapid-fire submissions.
    for t in 0..clients {
        let addr = addr.to_string();
        let image = image.clone();
        threads.push(std::thread::spawn(move || -> HammerTally {
            let mut tally = HammerTally::default();
            let Ok(mut c) = rock_serve::ServeClient::connect(&addr, &format!("tenant-{t}")) else {
                tally.errors += 1;
                return tally;
            };
            for j in 0..jobs_per_client {
                tally.note(c.submit(&format!("tenant-{t}-job-{j}"), 0, &image));
            }
            tally
        }));
    }
    // One tenant deliberately over its token budget: with refill 0 and
    // burst < over_quota, the tail is guaranteed QuotaExceeded.
    {
        let addr = addr.to_string();
        let image = image.clone();
        threads.push(std::thread::spawn(move || -> HammerTally {
            let mut tally = HammerTally::default();
            let Ok(mut c) = rock_serve::ServeClient::connect(&addr, "greedy") else {
                tally.errors += 1;
                return tally;
            };
            for j in 0..over_quota {
                tally.note(c.submit(&format!("greedy-job-{j}"), 0, &image));
            }
            tally
        }));
    }
    // One slow client trickling its submit frame byte-by-byte across
    // poll-tick boundaries: the daemon's buffered reader must stay in
    // sync and still admit (or shed) the request normally.
    if slow {
        let addr = addr.to_string();
        let image = image.clone();
        threads.push(std::thread::spawn(move || -> HammerTally {
            let mut tally = HammerTally::default();
            match hammer_trickle(&addr, &image) {
                Ok(response) => tally.note(Ok(response)),
                Err(_) => tally.errors += 1,
            }
            tally
        }));
    }
    let mut tally = HammerTally::default();
    for t in threads {
        tally.merge(t.join().map_err(|_| "hammer thread panicked")?);
    }
    // Every admitted job must reach a terminal state.
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut watcher = rock_serve::ServeClient::connect(addr, "hammer-watch")?;
    for job in &tally.accepted {
        match watcher.wait(*job, 50, wait_ms)? {
            JobState::Done { outcome, .. } if outcome == "ok" => done += 1,
            JobState::Done { .. } | JobState::Cancelled => failed += 1,
            _ => failed += 1,
        }
    }
    let quota = tally.rejections.get(RejectReason::QuotaExceeded.name()).copied().unwrap_or(0);
    println!(
        "hammer: submitted={} accepted={} done={done} failed={failed} rejected={} \
         (queue_full={} quota_exceeded={quota} draining={} too_large={}) errors={}",
        tally.submitted,
        tally.accepted.len(),
        tally.rejected(),
        tally.rejections.get(RejectReason::QueueFull.name()).copied().unwrap_or(0),
        tally.rejections.get(RejectReason::Draining.name()).copied().unwrap_or(0),
        tally.rejections.get(RejectReason::TooLarge.name()).copied().unwrap_or(0),
        tally.errors,
    );
    // The greedy tenant's submissions beyond the daemon's token burst
    // (passed via --burst) must all have been quota-shed; when
    // over_quota exceeds the burst, this floor is necessarily > 0.
    let quota_floor = over_quota.saturating_sub(burst);
    let healthy = failed == 0
        && tally.errors == 0
        && done == tally.accepted.len()
        && tally.submitted == tally.accepted.len() + tally.rejected() as usize
        && quota as usize >= quota_floor;
    Ok(if healthy { 0 } else { 1 })
}

#[derive(Default)]
struct HammerTally {
    submitted: usize,
    accepted: Vec<u64>,
    rejections: std::collections::BTreeMap<&'static str, u64>,
    errors: usize,
}

impl HammerTally {
    fn note(&mut self, response: std::io::Result<rock_serve::wire::Response>) {
        use rock_serve::wire::Response;
        self.submitted += 1;
        match response {
            Ok(Response::Accepted { job }) => self.accepted.push(job),
            Ok(Response::Rejected { reason, .. }) => {
                *self.rejections.entry(reason.name()).or_insert(0) += 1;
            }
            Ok(_) | Err(_) => self.errors += 1,
        }
    }

    fn merge(&mut self, other: HammerTally) {
        self.submitted += other.submitted;
        self.accepted.extend(other.accepted);
        for (k, v) in other.rejections {
            *self.rejections.entry(k).or_insert(0) += v;
        }
        self.errors += other.errors;
    }

    fn rejected(&self) -> u64 {
        self.rejections.values().sum()
    }
}

/// Handshakes normally, then writes one `Submit` frame in small chunks
/// with pauses longer than the daemon's poll tick, and finally reads
/// the response. Exercises the server's partial-frame buffering. Both
/// responses are read through [`rock_serve::read_frame`], which refuses
/// an oversized length prefix before allocating.
fn hammer_trickle(addr: &str, image: &[u8]) -> Result<rock_serve::wire::Response, Box<dyn Error>> {
    use rock_serve::wire::{Request, Response, SERVE_PROTOCOL_VERSION};
    use rock_serve::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr)?;
    let hello = Request::Hello { version: SERVE_PROTOCOL_VERSION, client: "trickle".to_string() };
    write_frame(&mut stream, &hello.encode())?;
    Response::decode(&read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)?)?; // HelloOk
    let submit =
        Request::Submit { name: "trickle-job".to_string(), deadline_ms: 0, image: image.to_vec() }
            .encode();
    let mut wire_bytes = (submit.len() as u32).to_le_bytes().to_vec();
    wire_bytes.extend_from_slice(&submit);
    // Length prefix byte-by-byte, then the body in three chunks, each
    // gap long enough to guarantee the daemon polls in between.
    for chunk in [&wire_bytes[..1], &wire_bytes[1..2], &wire_bytes[2..4]] {
        stream.write_all(chunk)?;
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    let body = &wire_bytes[4..];
    let third = body.len().div_ceil(3).max(1);
    for chunk in body.chunks(third) {
        stream.write_all(chunk)?;
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    Ok(Response::decode(&read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)?)?)
}

/// `rock store scrub`: offline self-healing pass over an artifact
/// store. Verifies every segment file frame by frame (checksum and
/// payload), sweeps orphaned segment tmp files, and quarantines damaged
/// files (writing the frames that verified back) and unknown entries
/// under `<store>/.quarantine/`. Exit code 0 unless the scrub itself hit
/// i/o errors it could not work around.
fn cmd_store(args: &[String]) -> Result<u8, Box<dyn Error>> {
    const STORE_USAGE: &str = "usage: rock store scrub [--store <dir>] [--dry-run] [--json]";
    let Some((verb, rest)) = args.split_first() else {
        return Err(STORE_USAGE.into());
    };
    if verb != "scrub" {
        return Err(format!("store: unknown verb {verb:?}\n{STORE_USAGE}").into());
    }
    let mut store_dir = String::from(".rock-store");
    let mut dry_run = false;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store_dir = it.next().ok_or("--store needs a directory")?.clone(),
            "--dry-run" => dry_run = true,
            "--json" => json = true,
            other => return Err(format!("store scrub: unknown flag {other}\n{STORE_USAGE}").into()),
        }
    }
    // Open without the usual open-time tmp sweep: scrub's own report
    // must account for every stale tmp, and `--dry-run` must not have
    // side effects (not even the mkdir of a mistyped store path).
    let store = ArtifactStore::open_unswept(&store_dir)?;
    let report = store.scrub(dry_run);
    if json {
        println!("{}", report.to_json());
    } else {
        for line in &report.details {
            println!("{}{line}", if dry_run { "would fix: " } else { "" });
        }
        println!(
            "scrub{}: {} artifacts ok, {} corrupt quarantined, {} tmp swept, \
             {} unknown quarantined, {} io errors{}",
            if dry_run { " (dry run)" } else { "" },
            report.artifacts_ok,
            report.corrupt_quarantined,
            report.tmp_swept,
            report.unknown_quarantined,
            report.io_errors,
            if report.is_clean() { " — clean" } else { "" },
        );
    }
    Ok(if report.io_errors == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["help".into()]).is_ok());
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn trickle_client_refuses_a_peer_that_is_not_a_daemon() {
        use std::io::Write;
        // A peer that speaks HTTP: its reply's first four bytes, read as
        // a frame length, claim 1,347,703,880 bytes (`b"HTTP"`).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            rock_serve::read_frame(&mut conn, rock_serve::DEFAULT_MAX_FRAME_BYTES).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        });
        let err = hammer_trickle(&addr, b"image").unwrap_err();
        peer.join().unwrap();
        let frame_err = err.downcast_ref::<rock_serve::FrameError>();
        assert!(
            matches!(
                frame_err,
                Some(rock_serve::FrameError::TooLarge { claimed: 1_347_703_880, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn list_runs() {
        assert!(cmd_list().is_ok());
    }

    #[test]
    fn metric_parsing() {
        assert_eq!(parse_metric("kl").unwrap(), Metric::KlDivergence);
        assert_eq!(parse_metric("js").unwrap(), Metric::JsDivergence);
        assert_eq!(parse_metric("jsd").unwrap(), Metric::JsDistance);
        assert!(parse_metric("euclid").is_err());
    }

    #[test]
    fn gen_info_reconstruct_roundtrip() {
        let dir = std::env::temp_dir().join("rock-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams.rkb");
        let path_str = path.to_str().unwrap().to_string();
        dispatch(&["gen".into(), "streams".into(), path_str.clone()]).unwrap();
        dispatch(&["info".into(), path_str.clone()]).unwrap();
        dispatch(&["vtables".into(), path_str.clone()]).unwrap();
        dispatch(&["families".into(), path_str.clone()]).unwrap();
        dispatch(&["reconstruct".into(), path_str.clone()]).unwrap();
        dispatch(&["pseudo".into(), path_str.clone()]).unwrap();
        dispatch(&["stats".into(), path_str.clone()]).unwrap();
        dispatch(&["disasm".into(), path_str.clone()]).unwrap();
        dispatch(&["reconstruct".into(), path_str.clone(), "--dot".into()]).unwrap();
        dispatch(&["reconstruct".into(), path_str.clone(), "--metric".into(), "js".into()])
            .unwrap();
        dispatch(&[
            "reconstruct".into(),
            path_str.clone(),
            "--timings".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        dispatch(&[
            "reconstruct".into(),
            path_str.clone(),
            "--diagnostics".into(),
            "--strict".into(),
        ])
        .unwrap();
        dispatch(&["reconstruct".into(), path_str.clone(), "--fuel".into(), "100000".into()])
            .unwrap();
        // A starved fuel budget degrades coverage but still succeeds
        // (non-strict), and is reported by --diagnostics.
        dispatch(&[
            "reconstruct".into(),
            path_str.clone(),
            "--fuel".into(),
            "1".into(),
            "--diagnostics".into(),
            "--timings".into(),
        ])
        .unwrap();
        assert!(dispatch(&["reconstruct".into(), path_str.clone(), "--fuel".into(), "x".into()])
            .is_err());
        // 0 means auto; garbage errors cleanly.
        dispatch(&["reconstruct".into(), path_str.clone(), "--threads".into(), "0".into()])
            .unwrap();
        assert!(dispatch(&[
            "reconstruct".into(),
            path_str.clone(),
            "--threads".into(),
            "lots".into(),
        ])
        .is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn trace_and_metrics_exports_validate() {
        let dir = std::env::temp_dir().join("rock-cli-trace");
        fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("streams.rkb").to_str().unwrap().to_string();
        let trace = dir.join("trace.json").to_str().unwrap().to_string();
        let metrics = dir.join("metrics.json").to_str().unwrap().to_string();
        dispatch(&["gen".into(), "streams".into(), bin.clone()]).unwrap();
        dispatch(&[
            "reconstruct".into(),
            bin.clone(),
            "--trace".into(),
            trace.clone(),
            "--trace-level".into(),
            "full".into(),
            format!("--metrics={metrics}"),
            "--timings=json".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        // At `full` (the CLI default is `sampled`), the exported trace
        // loads in chrome://tracing and carries per-item spans for all
        // four pipeline stages.
        let doc = fs::read_to_string(&trace).unwrap();
        validate_chrome_trace(&doc).unwrap();
        for span in ["analysis.function", "training.type", "distances.pair", "lifting.family"] {
            assert!(doc.contains(span), "trace missing per-item {span:?} spans");
        }
        // The production default still yields a valid export with the
        // coarse stage spans present.
        let strace = dir.join("trace-sampled.json").to_str().unwrap().to_string();
        dispatch(&["reconstruct".into(), bin.clone(), "--trace".into(), strace.clone()]).unwrap();
        let sdoc = fs::read_to_string(&strace).unwrap();
        validate_chrome_trace(&sdoc).unwrap();
        assert!(sdoc.contains("stage.analysis"), "sampled trace missing stage spans");
        // Unknown levels error out cleanly.
        assert!(dispatch(&[
            "reconstruct".into(),
            bin.clone(),
            "--trace".into(),
            trace.clone(),
            "--trace-level".into(),
            "verbose".into(),
        ])
        .is_err());
        let mdoc = fs::read_to_string(&metrics).unwrap();
        validate_metrics_doc(&mdoc).unwrap();
        // --metrics without a path prints to stdout instead of a file.
        dispatch(&["reconstruct".into(), bin.clone(), "--metrics".into()]).unwrap();

        // Batch: tracer covers supervisor spans; metrics embed in reports.
        let store = dir.join("store").to_str().unwrap().to_string();
        let btrace = dir.join("batch-trace.json").to_str().unwrap().to_string();
        let code = dispatch(&[
            "batch".into(),
            bin.clone(),
            "--store".into(),
            store,
            "--metrics".into(),
            "--trace".into(),
            btrace.clone(),
            "--timings=json".into(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        let bdoc = fs::read_to_string(&btrace).unwrap();
        validate_chrome_trace(&bdoc).unwrap();
        assert!(bdoc.contains("supervisor.job"), "batch trace missing supervisor spans");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_corpus_mode_shares_work_across_jobs() {
        let dir = std::env::temp_dir().join("rock-cli-corpus");
        fs::create_dir_all(&dir).unwrap();
        let a = dir.join("streams-a.rkb").to_str().unwrap().to_string();
        let b = dir.join("streams-b.rkb").to_str().unwrap().to_string();
        dispatch(&["gen".into(), "streams".into(), a.clone()]).unwrap();
        fs::copy(&a, &b).unwrap();
        let manifest = dir.join("corpus.txt").to_str().unwrap().to_string();
        fs::write(&manifest, format!("{a}\n{b}\n")).unwrap();
        let store = dir.join("store").to_str().unwrap().to_string();
        let code = dispatch(&[
            "batch".into(),
            "--corpus".into(),
            manifest.clone(),
            "--store".into(),
            store,
            "--timings".into(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        // A missing manifest errors cleanly.
        assert!(
            dispatch(&["batch".into(), "--corpus".into(), "/nonexistent/m.txt".into()]).is_err()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_command_executes_drivers() {
        let dir = std::env::temp_dir().join("rock-cli-test3");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams-run.rkb");
        let path_str = path.to_str().unwrap().to_string();
        dispatch(&["gen".into(), "streams".into(), path_str.clone(), "--keep-debug".into()])
            .unwrap();
        dispatch(&["run".into(), path_str.clone(), "useStream".into()]).unwrap();
        // Unknown symbol errors cleanly.
        assert!(dispatch(&["run".into(), path_str.clone(), "nope".into()]).is_err());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn gen_keep_debug_labels_reconstruction() {
        let dir = std::env::temp_dir().join("rock-cli-test2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams-debug.rkb");
        let path_str = path.to_str().unwrap().to_string();
        dispatch(&["gen".into(), "streams".into(), path_str.clone(), "--keep-debug".into()])
            .unwrap();
        let loaded = load_file(&path_str).unwrap();
        assert!(!loaded.image().is_stripped());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn eval_runs_on_a_small_benchmark() {
        dispatch(&["eval".into(), "pop3".into()]).unwrap();
        assert!(dispatch(&["eval".into(), "nope".into()]).is_err());
    }

    #[test]
    fn missing_files_error_cleanly() {
        assert!(dispatch(&["info".into(), "/nonexistent/x.rkb".into()]).is_err());
        assert!(dispatch(&["gen".into()]).is_err());
        assert!(dispatch(&["reconstruct".into(), "--metric".into()]).is_err());
    }
}

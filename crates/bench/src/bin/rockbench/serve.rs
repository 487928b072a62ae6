//! `serve_patch`: an open loop against a `rock serve` daemon.
//!
//! The daemon runs in its own process with `incremental` and `resume`
//! on, 2 workers and quotas that never bind. This process generates the
//! load over 2 connections: evenly spaced arrivals on a rate ladder
//! frozen from the seed commit's capacity, each job timed from when it
//! was due to be sent. Half the jobs are patches (first submissions of a
//! one-method edit of the 121-class delta image, whose base was flushed
//! and preloaded at set-up), 30% resume an image that completed earlier
//! and 20% are cold (first submissions of a rebuilt paper-suite
//! program). Every `Done` must carry exit code 0 and the fingerprint of
//! a direct cold run on the same image.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rock_binary::{image_from_bytes, image_to_bytes};
use rock_core::suite::{self, DeltaEdit};
use rock_core::{CorpusCache, Parallelism, Rock, RockConfig};
use rock_loader::LoadedBinary;
use rock_minicpp::{compile, Expr, ProgramBuilder};
use rock_serve::wire::{JobState, Response};
use rock_serve::{QuotaConfig, ServeClient, ServeConfig, Server};
use rock_supervisor::{flush_subartifacts, preload_subartifacts, ArtifactStore, Vfs};
use rock_trace::{names, parse_json, Json, TraceLevel, Tracer};

use crate::closed::cold_job;
use crate::inputs::Input;
use crate::layers::{self, span, Layers};
use crate::memvfs::{self, MemVfs};
use crate::probe::{self, Probe};
use crate::report::Report;
use crate::stats::{mean, ms_since, percentile, Rng};
use crate::ChildGuard;

/// Capacity of the seed commit's daemon on this workload's job mix (2
/// connections, 2 workers, about 240 jobs from set-up), in jobs per
/// second, measured on a 2-core VM. The ladder rates are frozen
/// fractions of it, so a slower daemon meets the same offered load.
const CAPACITY: f64 = 16.5;

/// The rate ladder: (fraction of `CAPACITY`, fraction of the measured
/// seconds). The 0.3 step is nominal and gets most of the time, so its
/// percentiles rest on about 120 jobs in a 30-second run. Every patch
/// adds entries that each later flush rewrites, so the daemon slows over
/// a run; at 0.5 C its queue sat near the tipping point late in the step
/// and the p90 flipped between runs, while at 0.3 C it measures service
/// time.
const STEPS: [(f64, f64); 4] = [(0.3, 0.82), (0.5, 0.06), (0.7, 0.06), (0.9, 0.06)];
const NOMINAL: usize = 0;

/// A step meets the objective when its p90 latency from due time is at
/// most this and every job finished within `SLO_DRAIN_S` of its end:
/// about the cold local reconstruction time of the 121-class base image
/// (120-140 ms on a 2-core VM). A daemon that cannot beat that has no
/// reason to exist.
const SLO_P90_MS: f64 = 130.0;
const SLO_DRAIN_S: f64 = 1.0;

/// A step whose generator ran later than this at p90 measured the
/// generator, not the daemon.
const MAX_GEN_LAG_MS: f64 = 5.0;

/// The nominal step's generator lag fails the run only from this many
/// jobs on: with fewer (a `--smoke` run has about 8), its p90 is one
/// late send.
const MIN_LAG_GUARD_JOBS: usize = 20;

/// Job mix: patch, resume, the rest cold.
const PATCH_SHARE: f64 = 0.5;
const RESUME_SHARE: f64 = 0.3;

/// A resume targets an image due at least this long before it, which
/// has completed by then at every ladder rate.
const RESUME_AGE_S: f64 = 2.0;

/// Status polls per outstanding job at most this often: fine against
/// job times near 70 ms, coarse enough that polling takes little of
/// the 2 cores the daemon needs.
const POLL: Duration = Duration::from_millis(5);

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs not done this long after the ladder ends count as failed.
const GIVE_UP_S: f64 = 30.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Patch,
    Resume,
    Cold,
}

struct Image {
    name: String,
    bytes: Vec<u8>,
    expect: u64,
    /// `Patch` for the base and its patches (121 classes), `Cold` for a
    /// rebuilt paper-suite program.
    kind: Kind,
}

struct Arrival {
    due_s: f64,
    step: usize,
    kind: Kind,
    image: usize,
}

/// The daemon's reconstruction config: canonical calls (tenants share
/// corpus entries), one job per worker thread.
fn daemon_config() -> RockConfig {
    RockConfig::paper().with_canonical_calls().with_parallelism(Parallelism::Serial)
}

fn base_spec() -> suite::DeltaSpec {
    suite::delta_spec(12, 10, 1205)
}

/// Maps `f` over `items` on two threads, in input order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break mine };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("harness worker")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

fn hash_of(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// A paper-suite program rebuilt with a distinct build stamp: the same
/// classes and code plus one free function holding `stamp`, so the image
/// is new to the daemon's checkpoint store.
fn stamped_suite_image(bench: &suite::Benchmark, stamp: u64) -> Vec<u8> {
    let mut program = bench.program.clone();
    let mut extra = ProgramBuilder::new();
    extra.func("rockbench_build_stamp", |f| {
        f.let_("stamp", Expr::Const(stamp));
        f.ret();
    });
    program.functions.extend(extra.finish().functions);
    let compiled = compile(&program, &bench.options).expect("stamped suite program compiles");
    image_to_bytes(&compiled.stripped_image())
}

/// A seeded one-function patch of the base spec: one method body
/// rewritten, the canonical edit of the patch-and-rerun loop. Every
/// patch then dirties the same amount of work, so the patch share of
/// the latency does not depend on which edits a seed drew.
fn draw_edit(rng: &mut Rng) -> DeltaEdit {
    DeltaEdit::EditBody { family: rng.below(12), class: rng.below(10), method: rng.below(2) }
}

/// `n` labels in the given shares (the last takes the rest), shuffled:
/// every step gets the same mix, so its percentiles do not move with
/// the draw of kinds.
fn stratified<T: Copy>(rng: &mut Rng, n: usize, shares: &[(T, f64)]) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for (i, &(label, share)) in shares.iter().enumerate() {
        let count =
            if i + 1 == shares.len() { n - out.len() } else { (share * n as f64).round() as usize };
        out.extend(std::iter::repeat_n(label, count.min(n - out.len())));
    }
    rng.shuffle(&mut out);
    out
}

/// The ladder's arrivals and every image they submit; image 0 is the
/// base. Records `harness.inputs_s` and `harness.reference_s`.
fn plan(seed: u64, ladder_s: f64, report: &mut Report) -> (Vec<Image>, Vec<Arrival>) {
    let t = Instant::now();
    let mut rng = Rng::new(seed);
    let base = base_spec();
    let programs = suite::all_benchmarks();
    enum Source {
        Patch(suite::DeltaSpec),
        Cold(usize, u64),
    }
    let mut sources = vec![Source::Patch(base.clone())];
    let mut specs_seen = vec![base.clone()];
    let mut suite_order: Vec<usize> = Vec::new();
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut step_start = 0.0;
    for (step, &(share, span_share)) in STEPS.iter().enumerate() {
        let window = span_share * ladder_s;
        let n = (share * CAPACITY * window).round() as usize;
        // Evenly spaced from a seeded phase. Poisson arrivals made about
        // a third of the nominal jobs overlap another on 2 cores, and
        // the p90 then followed the host's spare capacity, not the
        // daemon: it moved by 35-57% between runs.
        let gap = window / n.max(1) as f64;
        let phase = rng.unit() * gap;
        let times: Vec<f64> = (0..n).map(|k| step_start + phase + k as f64 * gap).collect();
        step_start += window;
        let kinds = stratified(
            &mut rng,
            n,
            &[(Kind::Patch, PATCH_SHARE), (Kind::Resume, RESUME_SHARE), (Kind::Cold, 1.0)],
        );
        let resumes = kinds.iter().filter(|&&k| k == Kind::Resume).count();
        // Resumes revisit new images in the proportion they were sent.
        let cold_share = 1.0 - PATCH_SHARE - RESUME_SHARE;
        let mut targets = stratified(
            &mut rng,
            resumes,
            &[(Kind::Patch, PATCH_SHARE / (PATCH_SHARE + cold_share)), (Kind::Cold, 1.0)],
        );
        for (due_s, kind) in times.into_iter().zip(kinds) {
            let image = match kind {
                Kind::Patch => {
                    let spec = loop {
                        let mut spec = base.clone();
                        suite::apply_delta(&mut spec, draw_edit(&mut rng));
                        if !specs_seen.contains(&spec) {
                            break spec;
                        }
                    };
                    specs_seen.push(spec.clone());
                    sources.push(Source::Patch(spec));
                    sources.len() - 1
                }
                Kind::Cold => {
                    if suite_order.is_empty() {
                        suite_order = (0..programs.len()).collect();
                        rng.shuffle(&mut suite_order);
                    }
                    let program = suite_order.pop().expect("refilled");
                    sources.push(Source::Cold(program, rng.next_u64()));
                    sources.len() - 1
                }
                // A seeded earlier image of the target kind, sent long
                // enough ago to have completed (the base if none is).
                Kind::Resume => {
                    let target = targets.pop().expect("one target per resume");
                    let old: Vec<usize> = arrivals
                        .iter()
                        .filter(|a| a.kind == target && a.due_s <= due_s - RESUME_AGE_S)
                        .map(|a| a.image)
                        .collect();
                    if old.is_empty() {
                        0
                    } else {
                        old[rng.below(old.len())]
                    }
                }
            };
            arrivals.push(Arrival { due_s, step, kind, image });
        }
    }
    let bytes: Vec<Vec<u8>> = par_map(&sources, |s| match s {
        Source::Patch(spec) => image_to_bytes(
            &suite::delta_program(spec).compile().expect("delta program compiles").stripped_image(),
        ),
        Source::Cold(i, stamp) => stamped_suite_image(&programs[*i], *stamp),
    });
    let distinct: HashSet<u64> = bytes.iter().map(|b| hash_of(b)).collect();
    if distinct.len() != bytes.len() {
        report.fail(format!(
            "{} of {} serve images repeat",
            bytes.len() - distinct.len(),
            bytes.len()
        ));
    }
    report.set("harness.inputs_s", t.elapsed().as_secs_f64());

    // References: a direct cold run per image on a fresh reconstructor
    // with no corpus, on two harness threads. The supervisor adds only
    // checkpoints to such a run, never a different result.
    let t = Instant::now();
    let names: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            Source::Patch(_) if i == 0 => "base".to_string(),
            Source::Patch(_) => format!("patch{i}"),
            Source::Cold(b, _) => format!("cold{i}-{}", programs[*b].name),
        })
        .collect();
    let expects = par_map(&bytes, |bytes| {
        let image = image_from_bytes(bytes).map_err(|e| e.to_string())?;
        let loaded = LoadedBinary::load_lenient(image);
        Ok::<u64, String>(crate::inputs::fingerprint(
            Rock::new(daemon_config()).reconstruct(&loaded),
        ))
    });
    report.set("harness.reference_s", t.elapsed().as_secs_f64());
    let mut images = Vec::new();
    for (((name, bytes), expect), source) in names.into_iter().zip(bytes).zip(expects).zip(&sources)
    {
        let expect = expect.unwrap_or_else(|e| {
            report.fail(format!("reference run of {name}: {e}"));
            0
        });
        let kind = if matches!(source, Source::Cold(..)) { Kind::Cold } else { Kind::Patch };
        images.push(Image { name, bytes, expect, kind });
    }
    (images, arrivals)
}

/// A daemon process and the generator's two connections to it.
struct Daemon {
    child: ChildGuard,
    clients: Vec<ServeClient>,
}

fn start_daemon(resident: &[u8], trace: bool) -> Result<Daemon, String> {
    let mut child = ChildGuard::spawn(&["__daemon", if trace { "1" } else { "0" }])
        .map_err(|e| format!("spawn daemon: {e}"))?;
    // Length-prefixed, and the pipe stays open: the daemon drains when it
    // closes, so it cannot outlive this process.
    let stdin = child.child().stdin.as_mut().expect("piped stdin");
    stdin
        .write_all(&(resident.len() as u64).to_le_bytes())
        .and_then(|()| stdin.write_all(resident))
        .map_err(|e| format!("send resident images: {e}"))?;
    // Byte by byte: nothing may sit in a buffer when `finish` reads the
    // rest of the daemon's output.
    let stdout = child.child().stdout.as_mut().expect("piped stdout");
    let mut line = Vec::new();
    let mut byte = [0u8];
    while line.last() != Some(&b'\n') {
        match stdout.read(&mut byte) {
            Ok(1) => line.push(byte[0]),
            _ => return Err("daemon exited before it was ready".into()),
        }
    }
    let line = String::from_utf8_lossy(&line);
    let port: u16 = line
        .trim()
        .strip_prefix("ready ")
        .and_then(|p| p.parse().ok())
        .ok_or(format!("unexpected daemon greeting {line:?}"))?;
    let clients = (0..2)
        .map(|c| ServeClient::connect(("127.0.0.1", port), &format!("rockbench-{c}")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Daemon { child, clients })
}

/// Drains the daemon and returns what it printed on exit.
fn stop_daemon(mut daemon: Daemon) -> Result<String, String> {
    daemon.clients[0].drain().map_err(|e| format!("drain: {e}"))?;
    drop(daemon.clients);
    match daemon.child.finish() {
        Ok((Some(0), out)) => Ok(out),
        Ok((code, _)) => Err(format!("daemon exited with {code:?}")),
        Err(e) => Err(format!("daemon: {e}")),
    }
}

/// Submits one image and polls it to a terminal state.
fn submit_and_wait(client: &mut ServeClient, image: &Image) -> Result<(), String> {
    let job = match client.submit(&image.name, 0, &image.bytes) {
        Ok(Response::Accepted { job }) => job,
        other => return Err(format!("{}: submit answered {other:?}", image.name)),
    };
    match client.wait(job, 1, 60_000) {
        Ok(JobState::Done { exit_code: 0, result_fp, .. }) if result_fp == image.expect => Ok(()),
        other => Err(format!("{}: {other:?}", image.name)),
    }
}

/// One set-up: start the daemon, which opens a fresh store, populates
/// it with the resident images' sub-artifacts, binds and preloads them;
/// connect; run the base image once through it. Returns the seconds it
/// took.
fn setup_once(resident: &[u8], base: &Image, trace: bool) -> Result<(f64, Daemon), String> {
    let t = Instant::now();
    let mut daemon = start_daemon(resident, trace)?;
    submit_and_wait(&mut daemon.clients[0], base)?;
    Ok((t.elapsed().as_secs_f64(), daemon))
}

/// The images whose sub-artifacts the store holds at set-up: the base
/// image and the paper-suite programs the cold jobs rebuild. Without the
/// latter every cold job would grow the corpus, and with it the cost of
/// every later flush, so the daemon would slow down for the whole run.
fn resident_images() -> Vec<Input> {
    let base = suite::delta_program(&base_spec());
    std::iter::once(base)
        .chain(suite::all_benchmarks())
        .map(|b| Input {
            name: b.name.to_string(),
            bytes: image_to_bytes(
                &b.compile().expect("resident program compiles").stripped_image(),
            ),
            expect: 0,
        })
        .collect()
}

/// A fresh store holding the resident images' sub-artifacts: a run of
/// each into one corpus cache, flushed.
fn populated_store(resident: &[Input], vfs: Arc<dyn Vfs>) -> Result<ArtifactStore, String> {
    let store = memvfs::store_on(vfs);
    let cache = Arc::new(CorpusCache::new());
    for input in resident {
        let image = image_from_bytes(&input.bytes).map_err(|e| format!("{}: {e}", input.name))?;
        let loaded = LoadedBinary::load(image).map_err(|e| format!("{}: {e}", input.name))?;
        Rock::new(daemon_config().with_parallelism(Parallelism::Threads(2)))
            .with_corpus_cache(Arc::clone(&cache))
            .reconstruct(&loaded);
    }
    flush_subartifacts(&store, &cache);
    Ok(store)
}

/// What happened to one arrival.
#[derive(Default)]
struct Outcome {
    lag_ms: f64,
    submit_ms: f64,
    /// From due time to the poll that saw `Done`; infinite on failure.
    latency_ms: f64,
    /// From the moment the submit was sent.
    sent_latency_ms: f64,
    server_ms: f64,
    polls: u64,
    done_s: f64,
    doc: Option<Json>,
    error: Option<String>,
    rejected: bool,
}

struct Pending {
    arrival: usize,
    job: u64,
    due: Instant,
    sent: Instant,
    lag_ms: f64,
    submit_ms: f64,
    polls: u64,
}

/// One connection's share of the arrivals (every other one), sent on
/// schedule whatever the daemon's state, outstanding jobs polled
/// between sends; the connection given `host` also probes the host's
/// speed between polls.
fn connection(
    client: &mut ServeClient,
    conn: usize,
    images: &[Image],
    arrivals: &[Arrival],
    start: Instant,
    give_up: Instant,
    mut host: Option<&mut Probe>,
) -> Vec<(usize, Outcome)> {
    let mine: Vec<usize> = (conn..arrivals.len()).step_by(2).collect();
    let due_of = |i: usize| start + Duration::from_secs_f64(arrivals[i].due_s);
    let mut out = Vec::new();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut next = 0;
    let failed = |error: String| Outcome {
        latency_ms: f64::INFINITY,
        error: Some(error),
        ..Default::default()
    };
    loop {
        let now = Instant::now();
        if let Some(&i) = mine.get(next) {
            let due = due_of(i);
            if now >= due {
                next += 1;
                let image = &images[arrivals[i].image];
                let lag_ms = (now - due).as_secs_f64() * 1e3;
                let t = Instant::now();
                let response = client.submit(&format!("{}#{i}", image.name), 0, &image.bytes);
                let submit_ms = ms_since(t);
                match response {
                    Ok(Response::Accepted { job }) => pending.push_back(Pending {
                        arrival: i,
                        job,
                        due,
                        sent: now,
                        lag_ms,
                        submit_ms,
                        polls: 0,
                    }),
                    Ok(Response::Rejected { reason, detail }) => out.push((
                        i,
                        Outcome {
                            lag_ms,
                            submit_ms,
                            rejected: true,
                            ..failed(format!("{}: rejected {reason:?}: {detail}", image.name))
                        },
                    )),
                    other => {
                        out.push((i, failed(format!("{}: submit answered {other:?}", image.name))))
                    }
                }
                continue;
            }
        } else if pending.is_empty() {
            return out;
        }
        if now >= give_up {
            for p in pending.drain(..) {
                out.push((p.arrival, failed(format!("arrival {} not done in time", p.arrival))));
            }
            for &i in &mine[next..] {
                out.push((i, failed(format!("arrival {i} never sent"))));
            }
            return out;
        }
        let mut still = VecDeque::new();
        for mut p in pending.drain(..) {
            p.polls += 1;
            let image = &images[arrivals[p.arrival].image];
            match client.status(p.job) {
                Ok(JobState::Queued { .. } | JobState::Running) => still.push_back(p),
                Ok(JobState::Done { exit_code, result_fp, report_json, .. }) => {
                    let done = Instant::now();
                    let doc = parse_json(&report_json).ok();
                    let server_ms =
                        doc.as_ref().and_then(|d| d.get("elapsed_ms")).and_then(Json::as_num);
                    let error = if exit_code != 0 {
                        Some(format!("{}: exit code {exit_code}", image.name))
                    } else if result_fp != image.expect {
                        Some(format!(
                            "{}: fingerprint {result_fp:016x}, reference {:016x}",
                            image.name, image.expect
                        ))
                    } else {
                        None
                    };
                    let latency_ms = (done - p.due).as_secs_f64() * 1e3;
                    out.push((
                        p.arrival,
                        Outcome {
                            lag_ms: p.lag_ms,
                            submit_ms: p.submit_ms,
                            latency_ms: if error.is_some() { f64::INFINITY } else { latency_ms },
                            sent_latency_ms: (done - p.sent).as_secs_f64() * 1e3,
                            server_ms: server_ms.unwrap_or(0.0),
                            polls: p.polls,
                            done_s: (done - start).as_secs_f64(),
                            doc: doc.and_then(|d| d.get("metrics").cloned()),
                            error,
                            rejected: false,
                        },
                    ));
                }
                other => out.push((p.arrival, failed(format!("{}: status {other:?}", image.name)))),
            }
        }
        pending = still;
        if let Some(host) = host.as_deref_mut() {
            host.maybe_sample();
        }
        let wake = mine.get(next).map_or(now + POLL, |&i| due_of(i).min(now + POLL));
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One direct-lane operation: `preload_subartifacts` → staged run →
/// `flush_subartifacts` on one patch, in process, against a store that
/// started with the resident images. Returns its milliseconds; traced
/// when `layers` is given.
fn lane_op(
    store: &ArtifactStore,
    image: &Image,
    layers: Option<&mut Layers>,
    report: &mut Report,
) -> Option<f64> {
    let entries = |c: &CorpusCache| {
        let (execs, models, distances) = c.lens();
        (execs + models + distances + c.lifting_len()) as f64
    };
    let tracer = layers.is_some().then(|| Arc::new(Tracer::new()));
    let t = tracer.as_deref();
    report.attempted += 1;
    let start = Instant::now();
    let (recon, preloaded, computed) = {
        let _job = span(t, layers::JOB);
        let cache = Arc::new(CorpusCache::new());
        {
            let _s = span(t, layers::PRELOAD);
            preload_subartifacts(store, &cache);
        }
        let preloaded = entries(&cache);
        let rock = Rock::new(daemon_config()).with_corpus_cache(Arc::clone(&cache));
        let recon = cold_job(&image.bytes, rock, tracer.as_ref());
        let computed = entries(&cache) - preloaded;
        {
            let _s = span(t, layers::FLUSH);
            flush_subartifacts(store, &cache);
        }
        (recon, preloaded, computed)
    };
    let elapsed = ms_since(start);
    let recon = match recon {
        Ok(recon) => recon,
        Err(e) => {
            report.fail(format!("lane {}: {e}", image.name));
            return None;
        }
    };
    if let (Some(layers), Some(tracer)) = (layers, &tracer) {
        layers.add_trace(&tracer.events());
        layers.add_counters(|name| recon.metrics.counter(name));
        layers.add_count("incr.preloaded", preloaded);
        layers.add_count("incr.flushed", computed);
    }
    let fp = crate::inputs::fingerprint(recon);
    if fp != image.expect {
        report.fail(format!(
            "lane {}: fingerprint {fp:016x}, reference {:016x}",
            image.name, image.expect
        ));
        return None;
    }
    Some(elapsed)
}

/// Span totals the daemon printed on exit: name → (count, ms).
fn span_totals(dump: &str) -> BTreeMap<String, (f64, f64)> {
    dump.lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("span ")?.split(' ');
            let name = f.next()?.to_string();
            let count: f64 = f.next()?.parse().ok()?;
            let ns: f64 = f.next()?.parse().ok()?;
            Some((name, (count, ns / 1e6)))
        })
        .collect()
}

/// Runs `serve_patch` for `seconds`: set-ups, then the ladder (half the
/// time on a traced run, whose other half runs the direct lane).
pub fn run(seed: u64, seconds: f64, trace: bool, force_mismatch: bool) -> Report {
    let mut report = Report::default();
    let ladder_s = if trace { seconds / 2.0 } else { seconds };
    let t = Instant::now();
    let resident = resident_images();
    let resident_bytes = crate::inputs::encode(&resident);
    let resident_s = t.elapsed().as_secs_f64();
    let (mut images, arrivals) = plan(seed, ladder_s, &mut report);
    let inputs_s = report.metrics.get("harness.inputs_s").copied().unwrap_or(0.0);
    report.set("harness.inputs_s", inputs_s + resident_s);
    if force_mismatch {
        images[1].expect ^= 1;
    }

    // Each set-up is scaled by the probes just before and after it.
    let mut host = Probe::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..SETUPS {
        host.sample_n(probe::NEAREST);
        let at = host.now_s();
        let set_up = setup_once(&resident_bytes, &images[0], trace);
        host.sample_n(probe::NEAREST);
        match set_up {
            Ok((s, daemon)) => {
                setups.push(s * host.scale_at(at));
                raw_setups.push(s);
                if i + 1 < SETUPS {
                    if let Err(e) = stop_daemon(daemon) {
                        report.fail(e);
                    }
                } else {
                    live = Some(daemon);
                }
            }
            Err(e) => report.fail(format!("set-up: {e}")),
        }
    }
    report.set("setup_s", percentile(&setups, 50.0));
    report.set("raw.setup_s", percentile(&raw_setups, 50.0));
    report.samples("setup_s", setups.len());
    let Some(mut daemon) = live else { return report };

    // The ladder.
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = start + Duration::from_secs_f64(ladder_s + GIVE_UP_S);
    let mut outcomes: Vec<Outcome> = (0..arrivals.len()).map(|_| Outcome::default()).collect();
    let (images_ref, arrivals_ref) = (&images, &arrivals);
    let ladder_at = host.at(start);
    let mut host_slot = Some(&mut host);
    std::thread::scope(|s| {
        let conns: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let probe = host_slot.take();
                s.spawn(move || {
                    connection(client, c, images_ref, arrivals_ref, start, give_up, probe)
                })
            })
            .collect();
        for conn in conns {
            for (i, o) in conn.join().expect("generator connection") {
                outcomes[i] = o;
            }
        }
    });
    let dump = match stop_daemon(daemon) {
        Ok(dump) => dump,
        Err(e) => {
            report.fail(e);
            String::new()
        }
    };
    host.sample();
    report.attempted += arrivals.len() as u64;
    let scale = |ladder_s: f64| host.scale_at(ladder_at + ladder_s);
    summarize(&images, &arrivals, &outcomes, ladder_s, &scale, &mut report);
    report.set("host.probe_ms", host.median_ms());
    report.samples("probes", host.count());
    if let Some(store) = dump.lines().find_map(|l| l.strip_prefix("store_mb ")) {
        report.note(format!("daemon in-memory store at exit: {store} MiB (part of peak_rss_mb)"));
    }
    match dump.lines().find_map(|l| l.strip_prefix("peak_rss_mb ")).and_then(|v| v.parse().ok()) {
        Some(mib) => report.set("peak_rss_mb", mib),
        None => report.fail("daemon reported no peak resident set".into()),
    }

    if trace {
        let patches: Vec<&Image> =
            arrivals.iter().filter(|a| a.kind == Kind::Patch).map(|a| &images[a.image]).collect();
        // Each patch runs untraced on one resident store and traced on
        // another, in alternating order, so drift lands on both sides.
        let lane_store = || populated_store(&resident, Arc::new(MemVfs::default()));
        let stores = match (lane_store(), lane_store()) {
            (Ok(a), Ok(b)) => [a, b],
            (Err(e), _) | (_, Err(e)) => {
                report.fail(e);
                return report;
            }
        };
        let until = Instant::now() + Duration::from_secs_f64(seconds - ladder_s);
        let mut layers = Layers::default();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (k, image) in patches.iter().enumerate() {
            if Instant::now() >= until {
                break;
            }
            for traced_turn in [k % 2 == 0, k % 2 == 1] {
                if traced_turn {
                    traced.extend(lane_op(&stores[1], image, Some(&mut layers), &mut report));
                } else {
                    untraced.extend(lane_op(&stores[0], image, None, &mut report));
                }
            }
        }
        layers.finish(&mut report);
        let base = mean(&untraced);
        report.set("harness.trace_overhead_pct", 100.0 * (mean(&traced) - base) / base);
        report.samples("trace_overhead.untraced", untraced.len());
        report.samples("trace_overhead.traced", traced.len());
        daemon_layers(&outcomes, &span_totals(&dump), &mut report);
    }
    report
}

/// The ladder's end-to-end numbers (at the nominal step, each job
/// scaled by `scale` at its midpoint in seconds since the ladder's
/// start), its per-kind split, the objective, and the generator's own
/// health.
fn summarize(
    images: &[Image],
    arrivals: &[Arrival],
    outcomes: &[Outcome],
    ladder_s: f64,
    scale: &dyn Fn(f64) -> f64,
    report: &mut Report,
) {
    for o in outcomes {
        if let Some(e) = &o.error {
            report.fail(e.clone());
        }
    }
    let mut slo_rate = 0.0;
    let mut step_start = 0.0;
    for (step, &(share, span_share)) in STEPS.iter().enumerate() {
        let step_end = step_start + span_share * ladder_s;
        step_start = step_end;
        let at: Vec<&Outcome> =
            arrivals.iter().zip(outcomes).filter(|(a, _)| a.step == step).map(|(_, o)| o).collect();
        let latency: Vec<f64> = at.iter().map(|o| o.latency_ms).collect();
        let lag: Vec<f64> = at.iter().map(|o| o.lag_ms).collect();
        let (p50, p90, lag_p90) =
            (percentile(&latency, 50.0), percentile(&latency, 90.0), percentile(&lag, 90.0));
        let drained = at.iter().all(|o| o.error.is_none() && o.done_s <= step_end + SLO_DRAIN_S);
        let rate = share * CAPACITY;
        let valid = lag_p90 <= MAX_GEN_LAG_MS;
        let meets = valid && drained && p90 <= SLO_P90_MS;
        if meets {
            slo_rate = rate;
        }
        report.note(format!(
            "step {rate:.1}/s: {} jobs, p50 {p50:.2} ms, p90 {p90:.2} ms from due, generator lag p90 \
             {lag_p90:.3} ms{}{}",
            at.len(),
            if drained { "" } else { ", not drained within 1 s" },
            if !valid { ", INVALID (generator-bound)" } else if meets { ", meets the objective" } else { "" },
        ));
        if step == NOMINAL {
            if !valid && at.len() >= MIN_LAG_GUARD_JOBS {
                report.fail(format!(
                    "nominal step generator lag p90 {lag_p90:.3} ms > {MAX_GEN_LAG_MS} ms"
                ));
            }
            let scaled: Vec<f64> =
                at.iter().map(|o| o.latency_ms * scale(o.done_s - o.latency_ms / 2e3)).collect();
            report.set("job_p50_ms", percentile(&scaled, 50.0));
            report.set("job_p90_ms", percentile(&scaled, 90.0));
            report.set("raw.job_p50_ms", p50);
            report.set("raw.job_p90_ms", p90);
            report.samples("jobs.nominal", at.len());
            // Median and count of the step's jobs of one kind, on any
            // image or on paper-suite images only.
            let p50_of = |kind: Kind, suite_only: bool| {
                let of: Vec<f64> = arrivals
                    .iter()
                    .zip(outcomes)
                    .filter(|(a, _)| a.step == step && a.kind == kind)
                    .filter(|(a, _)| !suite_only || images[a.image].kind == Kind::Cold)
                    .map(|(_, o)| o.latency_ms)
                    .collect();
                (percentile(&of, 50.0), of.len())
            };
            for (kind, metric) in [
                (Kind::Patch, "serve.patch_p50_ms"),
                (Kind::Resume, "serve.resume_p50_ms"),
                (Kind::Cold, "serve.cold_p50_ms"),
            ] {
                let (p50, n) = p50_of(kind, false);
                report.set(metric, p50);
                report.samples(metric, n);
            }
            // Resume against cold on the same (paper-suite) images.
            let ((resume, nr), (cold, nc)) = (p50_of(Kind::Resume, true), p50_of(Kind::Cold, true));
            report.note(format!(
                "paper-suite images at the nominal step: resume p50 {resume:.2} ms ({nr} jobs), \
                 cold p50 {cold:.2} ms ({nc} jobs)"
            ));
        }
    }
    report.set("serve.slo_rate_jobs_per_s", slo_rate);
    // Completed jobs per second of ladder, the drain of any backlog
    // included: the offered load while the daemon keeps up, less once
    // its capacity falls below the top step.
    let completed = outcomes.iter().filter(|o| o.error.is_none()).count();
    let last_done = outcomes.iter().map(|o| o.done_s).fold(ladder_s, f64::max);
    report.set("jobs_per_s", completed as f64 / last_done);
    report.samples("jobs", outcomes.len());

    let done: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    let per_done =
        |f: &dyn Fn(&Outcome) -> f64| mean(&done.iter().map(|o| f(o)).collect::<Vec<_>>());
    report.set("serve.submit_ms", mean(&outcomes.iter().map(|o| o.submit_ms).collect::<Vec<_>>()));
    report.set("serve.server_job_ms", per_done(&|o| o.server_ms));
    report.set("serve.queue_wait_ms", per_done(&|o| o.sent_latency_ms - o.submit_ms - o.server_ms));
    report.set("serve.polls_per_job", per_done(&|o| o.polls as f64));
    let rejected = outcomes.iter().filter(|o| o.rejected).count();
    report.set("serve.rejected", rejected as f64 / outcomes.len().max(1) as f64);
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
    report.set("harness.gen_lag_p90_ms", percentile(&lags, 90.0));
}

/// Daemon-side layers: corpus, supervisor and store counters from each
/// job's metrics document, supervisor times from the daemon's spans.
fn daemon_layers(outcomes: &[Outcome], spans: &BTreeMap<String, (f64, f64)>, report: &mut Report) {
    let mut counts = Layers::default();
    for doc in outcomes.iter().filter_map(|o| o.doc.as_ref()) {
        counts.add_counters(|name| layers::doc_counter(doc, name));
    }
    let mut daemon = Report::default();
    counts.finish(&mut daemon);
    for (metric, value) in daemon.metrics {
        if metric.starts_with("corpus.")
            || metric.starts_with("supervisor.")
            || metric.starts_with("store.")
        {
            report.set(&metric, value);
        }
    }
    let total = |name: &str| spans.get(name).map_or(0.0, |&(_, ms)| ms);
    let jobs = spans.get(names::SUPERVISOR_JOB).map_or(0.0, |&(n, _)| n).max(1.0);
    let inner: f64 = [
        names::STAGE_ANALYSIS,
        names::STAGE_TRAINING,
        names::STAGE_DISTANCES,
        names::STAGE_LIFTING,
        names::STAGE_REPARTITION,
        names::SUPERVISOR_CHECKPOINT,
        names::SUPERVISOR_RESTORE,
    ]
    .iter()
    .map(|n| total(n))
    .sum();
    report.set("supervisor.job_ms", (total(names::SUPERVISOR_JOB) - inner) / jobs);
    report.set("supervisor.checkpoint_ms", total(names::SUPERVISOR_CHECKPOINT) / jobs);
    report.set("supervisor.restore_ms", total(names::SUPERVISOR_RESTORE) / jobs);
}

/// `__daemon <trace>`, the length-prefixed resident images on standard
/// input: populates a fresh in-memory store with them, binds on a free
/// loopback port (preloading the store), prints `ready <port>`, serves
/// until drained (or until standard input closes), then prints its peak
/// resident set (`VmHWM`, the in-memory store included), the store's
/// size and, when traced, the total time per span name.
pub fn daemon_main(argv: &[String]) -> i32 {
    let [trace] = argv else {
        eprintln!("rockbench __daemon takes <trace>");
        return 2;
    };
    let disk = Arc::new(MemVfs::default());
    let vfs: Arc<dyn Vfs> = disk.clone();
    let mut stdin = std::io::stdin();
    let mut len = [0u8; 8];
    let populated = stdin
        .read_exact(&mut len)
        .and_then(|()| {
            let mut blob = vec![0; u64::from_le_bytes(len) as usize];
            stdin.read_exact(&mut blob).map(|()| blob)
        })
        .map_err(|e| e.to_string())
        .and_then(|blob| crate::inputs::decode(&blob))
        .and_then(|resident| populated_store(&resident, Arc::clone(&vfs)));
    if let Err(e) = populated {
        eprintln!("rockbench __daemon: {e}");
        return 1;
    }
    let mut cfg = ServeConfig::new(memvfs::STORE_ROOT);
    cfg.vfs = Some(vfs);
    cfg.config = daemon_config();
    cfg.options.incremental = true;
    cfg.options.collect_metrics = true;
    cfg.workers = 2;
    cfg.queue_capacity = 1 << 16;
    // Burst and inflight 0 disable both limits: quotas never bind.
    cfg.quota = QuotaConfig { burst: 0, refill_per_sec: 0, max_inflight: 0 };
    cfg.idle_timeout_ms = 600_000;
    let tracer = (trace == "1").then(|| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        cfg.tracer = Some(Arc::clone(t));
        cfg.trace_level = TraceLevel::Stage;
    }
    let server = match Server::bind(cfg, "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            eprintln!("rockbench __daemon: bind: {e}");
            return 1;
        }
    };
    let port = server.local_addr().map(|a| a.port()).unwrap_or(0);
    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        handle.drain();
    });
    println!("ready {port}");
    let served = server.run();
    // The parent closes the pipe before it reads this process's output.
    let _ = watcher.join();
    if let Err(e) = served {
        eprintln!("rockbench __daemon: {e}");
        return 1;
    }
    println!("peak_rss_mb {}", crate::stats::peak_rss_mib());
    println!("store_mb {}", disk.file_bytes() as f64 / (1024.0 * 1024.0));
    if let Some(t) = tracer {
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for e in t.events() {
            let entry = totals.entry(e.name).or_default();
            entry.0 += 1;
            entry.1 += e.dur_ns;
        }
        for (name, (count, ns)) in totals {
            println!("span {name} {count} {ns}");
        }
    }
    0
}

//! The daemon: accept loop, admission control, worker pool, drain.
//!
//! Threading model — deliberately boring: one accept loop (the thread
//! that called [`Server::run`]), one detached handler thread per
//! connection, and a fixed pool of worker threads popping a bounded
//! queue. No async runtime, no dependencies; every blocking wait is
//! either a condvar with a timeout or a socket read with a timeout, so
//! every thread notices shutdown within one poll tick.
//!
//! The robustness contract, in order of the admission checks:
//!
//! 1. draining → `Rejected { Draining }` (admitted work still finishes);
//! 2. oversized image → `Rejected { TooLarge }`;
//! 3. per-client inflight/token quota → `Rejected { QuotaExceeded }`;
//! 4. full queue → `Rejected { QueueFull }`.
//!
//! Everything admitted completes to a terminal, queryable state — even
//! if its connection dies, even if the job panics (contained per
//! worker), even across a drain. A drain stops admission, lets the
//! queue empty, joins the workers, flushes the shared corpus once more,
//! and reports a [`DrainSummary`]; an interrupted job resumes
//! bit-identically when a new daemon over the same artifact store
//! preloads what its stage-boundary flushes persisted and reruns it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rock_core::{CorpusCache, FaultPlan, RockConfig};
use rock_supervisor::wire::{
    JobState, RejectReason, Request, Response, SERVE_MIN_PROTOCOL_VERSION, SERVE_PROTOCOL_VERSION,
};
use rock_supervisor::{exit, ArtifactStore, StdVfs, Supervisor, SupervisorOptions, Vfs};
use rock_trace::{
    json_escape, names, panic_message, MetricsRegistry, TraceCtx, TraceLevel, Tracer,
};

use crate::admission::{QuotaConfig, Quotas};
use crate::fingerprint::result_fp;
use crate::frame::{write_frame, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::signals;

/// Everything the daemon needs to know at startup.
#[derive(Clone)]
pub struct ServeConfig {
    /// Artifact-store root (sub-artifacts; shared across restarts).
    pub store_dir: PathBuf,
    /// The reconstruction configuration every job runs under.
    pub config: RockConfig,
    /// Supervision policy template. `deadline_ms` is the server default
    /// a `Submit` with `deadline_ms == 0` inherits; `incremental`
    /// defaults on, so every job flushes the shared corpus at its stage
    /// boundaries and a restarted daemon preloads what they persisted.
    pub options: SupervisorOptions,
    /// Admission-queue capacity (K); submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-client token-bucket and inflight limits.
    pub quota: QuotaConfig,
    /// Shared corpus-cache capacity per tier (0: unbounded).
    pub corpus_capacity: usize,
    /// Largest admissible submitted image, in bytes.
    pub max_image_bytes: usize,
    /// Largest tolerated frame body (protocol-level cap).
    pub max_frame_bytes: usize,
    /// Per-connection send budget in bytes (0: unlimited). A
    /// connection that makes the daemon buffer more than this is a slow
    /// reader and is dropped (its jobs keep running).
    pub send_budget_bytes: usize,
    /// Socket write timeout, milliseconds.
    pub write_timeout_ms: u64,
    /// Close a connection after this much read silence, milliseconds.
    pub idle_timeout_ms: u64,
    /// Poll granularity for accept/shutdown/idle checks, milliseconds.
    pub poll_ms: u64,
    /// Span tracer for `serve.*` + per-job spans (optional).
    pub tracer: Option<Arc<Tracer>>,
    /// Level for the attached tracer.
    pub trace_level: TraceLevel,
    /// Storage backend for the shared artifact store (`None`: the real
    /// filesystem). Chaos tests hand a `FaultyVfs` in here.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// Fsync sub-artifacts (and their directory) before a flush counts
    /// as committed. Off by default: durability costs latency.
    pub durable: bool,
}

impl ServeConfig {
    /// Production-shaped defaults over `store_dir`: the paper config
    /// with canonical calls (so tenants share corpus entries),
    /// `incremental` on (stage-boundary flushes, preload at bind), a
    /// 64-deep queue, 4 workers, and a bounded corpus cache.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServeConfig {
        let mut options = SupervisorOptions::default();
        options.incremental = true;
        ServeConfig {
            store_dir: store_dir.into(),
            config: RockConfig::paper().with_canonical_calls(),
            options,
            queue_capacity: 64,
            workers: 4,
            quota: QuotaConfig::default(),
            corpus_capacity: 1 << 16,
            max_image_bytes: 16 << 20,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            send_budget_bytes: 0,
            write_timeout_ms: 2_000,
            idle_timeout_ms: 30_000,
            poll_ms: 10,
            tracer: None,
            trace_level: TraceLevel::default(),
            vfs: None,
            durable: false,
        }
    }
}

/// What the daemon had done by the time it drained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Admitted jobs that reached a terminal state (includes contained
    /// panics and interrupted jobs).
    pub completed: u64,
    /// Jobs cancelled while still queued.
    pub cancelled: u64,
    /// Submissions shed with a typed rejection, all reasons.
    pub rejected: u64,
    /// Malformed frames answered with a typed protocol error.
    pub protocol_errors: u64,
    /// Job panics contained by workers.
    pub panics_contained: u64,
}

/// One admitted, not-yet-executed job.
struct QueuedJob {
    id: u64,
    client: String,
    name: String,
    deadline_ms: u64,
    image: Vec<u8>,
}

/// Terminal/transient state of a job in the table.
enum Slot {
    Queued,
    Running,
    Done { exit_code: u8, outcome: String, result_fp: u64, report_json: String },
    Cancelled,
}

struct Inner {
    cfg: ServeConfig,
    store: ArtifactStore,
    corpus: Arc<CorpusCache>,
    quotas: Quotas,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, Slot>>,
    next_job: AtomicU64,
    queued: AtomicU64,
    running: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    paused: AtomicBool,
    metrics: Mutex<MetricsRegistry>,
    faults: Mutex<BTreeMap<String, Arc<FaultPlan>>>,
    poisoned: Mutex<BTreeSet<String>>,
}

impl Inner {
    fn count(&self, name: &'static str, delta: u64) {
        self.metrics.lock().expect("serve metrics poisoned").add(name, delta);
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.lock().expect("serve metrics poisoned").counter(name)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    /// No admitted work pending. Checked under the queue lock so the
    /// accept loop's drained-and-idle decision serializes against both
    /// `submit`'s locked draining re-check and the workers' locked
    /// queued→running hand-off: every admission is either visible here
    /// or was shed with a typed `Draining` rejection.
    fn idle(&self) -> bool {
        let queue = self.queue.lock().expect("serve queue poisoned");
        queue.is_empty() && self.running.load(Ordering::Relaxed) == 0
    }

    /// The admission pipeline for one `Submit`, checks in documented
    /// order. Returns the response to send.
    fn submit(&self, client: &str, name: String, deadline_ms: u64, image: Vec<u8>) -> Response {
        if self.draining() {
            self.count(names::SERVE_REJECTED_DRAINING, 1);
            return Response::Rejected {
                reason: RejectReason::Draining,
                detail: "daemon is draining; no new work admitted".to_string(),
            };
        }
        if image.len() > self.cfg.max_image_bytes {
            self.count(names::SERVE_REJECTED_TOO_LARGE, 1);
            return Response::Rejected {
                reason: RejectReason::TooLarge,
                detail: format!(
                    "image of {} bytes exceeds the {}-byte cap",
                    image.len(),
                    self.cfg.max_image_bytes
                ),
            };
        }
        if let Err((reason, detail)) = self.quotas.admit(client) {
            self.count(names::SERVE_REJECTED_QUOTA, 1);
            return Response::Rejected { reason, detail };
        }
        // Lock discipline: `jobs` and `queue` are never held together
        // (the same rule `status` and the workers follow). The slot
        // enters the table before the job is queued — workers cannot
        // see it until the push — and a rejection takes it back out.
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock().expect("serve job table poisoned").insert(id, Slot::Queued);
        let mut queue = self.queue.lock().expect("serve queue poisoned");
        // Re-check under the queue lock: the accept loop decides
        // "draining and idle" while holding this lock, so a submission
        // racing that decision is either visible in the queue before
        // the loop breaks or shed here — never admitted into a daemon
        // whose workers are already gone.
        if self.draining() {
            drop(queue);
            return self.unsubmit(
                id,
                client,
                RejectReason::Draining,
                names::SERVE_REJECTED_DRAINING,
            );
        }
        if queue.len() >= self.cfg.queue_capacity.max(1) {
            drop(queue);
            return self.unsubmit(
                id,
                client,
                RejectReason::QueueFull,
                names::SERVE_REJECTED_QUEUE_FULL,
            );
        }
        queue.push_back(QueuedJob { id, client: client.to_string(), name, deadline_ms, image });
        self.queued.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.queue_cv.notify_one();
        self.count(names::SERVE_ACCEPTED, 1);
        Response::Accepted { job: id }
    }

    /// Backs a provisional job slot out of the table and builds the
    /// rejection for a `Submit` that failed a check under the queue
    /// lock (which the caller has already released).
    fn unsubmit(
        &self,
        id: u64,
        client: &str,
        reason: RejectReason,
        metric: &'static str,
    ) -> Response {
        self.jobs.lock().expect("serve job table poisoned").remove(&id);
        self.quotas.release(client);
        self.count(metric, 1);
        let detail = match reason {
            RejectReason::Draining => "daemon is draining; no new work admitted".to_string(),
            _ => format!("admission queue at capacity {}", self.cfg.queue_capacity),
        };
        Response::Rejected { reason, detail }
    }

    /// The wire-visible state of `job` right now. The queue position
    /// of a Queued slot is looked up after the `jobs` lock is released
    /// (locks are never nested), so a worker can pop the job between
    /// the two reads — a Queued slot absent from the queue is on its
    /// way to Running, never "first in line".
    fn status(&self, job: u64) -> JobState {
        if let Some(state) = self.settled_state(job) {
            return state;
        }
        let position = {
            let queue = self.queue.lock().expect("serve queue poisoned");
            queue.iter().position(|q| q.id == job)
        };
        match position {
            Some(p) => JobState::Queued { position: p as u64 },
            None => self.settled_state(job).unwrap_or(JobState::Running),
        }
    }

    /// The slot's state when it can be answered from the job table
    /// alone; `None` means the slot is Queued and needs a queue lookup.
    fn settled_state(&self, job: u64) -> Option<JobState> {
        let jobs = self.jobs.lock().expect("serve job table poisoned");
        match jobs.get(&job) {
            None => Some(JobState::Unknown),
            Some(Slot::Queued) => None,
            Some(Slot::Running) => Some(JobState::Running),
            Some(Slot::Cancelled) => Some(JobState::Cancelled),
            Some(Slot::Done { exit_code, outcome, result_fp, report_json }) => {
                Some(JobState::Done {
                    exit_code: *exit_code,
                    outcome: outcome.clone(),
                    result_fp: *result_fp,
                    report_json: report_json.clone(),
                })
            }
        }
    }

    /// Best-effort cancel: only a still-queued job can be pulled back.
    /// Returns the job's state after the attempt.
    fn cancel(&self, job: u64) -> JobState {
        let mut queue = self.queue.lock().expect("serve queue poisoned");
        if let Some(pos) = queue.iter().position(|q| q.id == job) {
            let pulled = queue.remove(pos).expect("position just found");
            drop(queue);
            self.queued.fetch_sub(1, Ordering::Relaxed);
            self.quotas.release(&pulled.client);
            self.jobs.lock().expect("serve job table poisoned").insert(job, Slot::Cancelled);
            self.count(names::SERVE_CANCELLED, 1);
            return JobState::Cancelled;
        }
        drop(queue);
        self.status(job)
    }

    /// Runs one job through a per-job [`Supervisor`] over the shared
    /// store and corpus. Any error is folded into a typed terminal
    /// state — this function's caller additionally contains panics.
    fn execute(&self, job: &QueuedJob) -> Slot {
        if self.poisoned.lock().expect("serve poison set poisoned").contains(&job.name) {
            panic!("poisoned job {:?} (injected)", job.name);
        }
        // The store is opened once at bind and cloned per job: every
        // clone shares the same Vfs handle and stats cell, so injected
        // faults and `store.*` counters are daemon-wide, not per-job.
        let store = self.store.clone();
        let mut options = self.cfg.options.clone();
        if job.deadline_ms > 0 {
            options.deadline_ms = Some(job.deadline_ms);
        }
        let mut sup =
            Supervisor::new(self.cfg.config, store, options).with_corpus(Arc::clone(&self.corpus));
        if let Some(plan) = self.faults.lock().expect("serve fault map poisoned").get(&job.name) {
            sup = sup.with_fault_plan(Arc::clone(plan));
        }
        if let Some(tracer) = &self.cfg.tracer {
            sup = sup.with_tracer(Arc::clone(tracer)).with_trace_level(self.cfg.trace_level);
        }
        // With `incremental` on the job flushes the shared corpus at
        // every stage boundary, one segment file per flush that added
        // entries: each flush claims only entries no earlier flush
        // persisted, so a crashed daemon loses at most the in-flight
        // stage, and a restarted one preloads everything every earlier
        // tenant computed. The registry sums the job's counts.
        let result = sup.run_job(&job.name, &job.image);
        if self.cfg.options.incremental {
            let mut metrics = self.metrics.lock().expect("serve metrics poisoned");
            for name in [names::INCR_FLUSHED, names::INCR_IO_ERRORS] {
                metrics.add(name, result.report.counters.counter(name));
            }
        }
        Slot::Done {
            exit_code: result.report.exit_code(),
            outcome: result.report.outcome.name().to_string(),
            result_fp: result_fp(&result.output),
            report_json: result.report.to_json(),
        }
    }

    fn summary(&self) -> DrainSummary {
        DrainSummary {
            accepted: self.counter(names::SERVE_ACCEPTED),
            completed: self.counter(names::SERVE_COMPLETED),
            cancelled: self.counter(names::SERVE_CANCELLED),
            rejected: self.counter(names::SERVE_REJECTED_QUEUE_FULL)
                + self.counter(names::SERVE_REJECTED_QUOTA)
                + self.counter(names::SERVE_REJECTED_DRAINING)
                + self.counter(names::SERVE_REJECTED_TOO_LARGE),
            protocol_errors: self.counter(names::SERVE_PROTOCOL_ERRORS),
            panics_contained: self.counter(names::SERVE_PANICS_CONTAINED),
        }
    }
}

/// A cloneable remote control for a bound [`Server`]: drain triggers,
/// counters, and the test-only fault hooks.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Stops admission and lets the daemon finish admitted work.
    pub fn drain(&self) {
        self.inner.begin_drain();
    }

    /// Whether admission has stopped.
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Jobs waiting + executing right now.
    pub fn load(&self) -> (u64, u64) {
        (self.inner.queued.load(Ordering::Relaxed), self.inner.running.load(Ordering::Relaxed))
    }

    /// One daemon counter by name: a `serve.*` count, or an `incr.*`
    /// sub-artifact preload/flush total (these only move when
    /// [`SupervisorOptions::incremental`] is on).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.counter(name)
    }

    /// The daemon-lifetime summary so far.
    pub fn summary(&self) -> DrainSummary {
        self.inner.summary()
    }

    /// Attaches a [`FaultPlan`] to every future job submitted under
    /// `job_name` (fault-injection hook for tests and drills).
    pub fn set_fault_plan(&self, job_name: &str, plan: Arc<FaultPlan>) {
        self.inner
            .faults
            .lock()
            .expect("serve fault map poisoned")
            .insert(job_name.to_string(), plan);
    }

    /// Test seam: while paused, workers stop popping the queue (so a
    /// test can fill it deterministically). Admission is unaffected.
    /// Un-pause before draining, or the drain never finishes.
    pub fn pause_workers(&self, paused: bool) {
        self.inner.paused.store(paused, Ordering::Relaxed);
        self.inner.queue_cv.notify_all();
    }

    /// Makes every future job submitted under `job_name` panic inside
    /// the worker, *outside* the supervisor's own containment — the
    /// harshest poisoned-job drill the daemon must survive.
    pub fn poison_job(&self, job_name: &str) {
        self.inner.poisoned.lock().expect("serve poison set poisoned").insert(job_name.to_string());
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and prepares shared state,
    /// including the artifact store (opened once; a store root that
    /// cannot even be created fails the bind instead of every job).
    /// No thread starts until [`Server::run`].
    pub fn bind(cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let vfs = cfg.vfs.clone().unwrap_or_else(StdVfs::arc);
        let store =
            ArtifactStore::open_with(&cfg.store_dir, vfs, cfg.durable)?.with_sleep_backoff(true);
        let corpus = Arc::new(if cfg.corpus_capacity > 0 {
            CorpusCache::bounded(cfg.corpus_capacity)
        } else {
            CorpusCache::new()
        });
        let quotas = Quotas::new(cfg.quota);
        // Warm the shared corpus from the persisted sub-artifact store
        // before any tenant connects: a resubmitted (or patched) image
        // then reuses every function/type/pair/family artifact an
        // earlier daemon over this store already computed.
        let metrics = if cfg.options.incremental {
            rock_supervisor::preload_subartifacts(&store, &corpus)
        } else {
            MetricsRegistry::new()
        };
        let inner = Arc::new(Inner {
            cfg,
            store,
            corpus,
            quotas,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            metrics: Mutex::new(metrics),
            faults: Mutex::new(BTreeMap::new()),
            poisoned: Mutex::new(BTreeSet::new()),
        });
        Ok(Server { inner, listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control valid before, during, and after [`Server::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { inner: Arc::clone(&self.inner) }
    }

    /// Serves until drained (by a `Drain` frame, [`ServerHandle::drain`],
    /// or `SIGTERM`), then finishes admitted work, joins the workers,
    /// and reports. The accept loop keeps accepting *connections* while
    /// draining — tenants poll in-flight jobs to completion — but
    /// admission of new work stops the moment the drain begins.
    pub fn run(self) -> io::Result<DrainSummary> {
        let inner = self.inner;
        let listener = self.listener;
        listener.set_nonblocking(true)?;
        let poll = Duration::from_millis(inner.cfg.poll_ms.max(1));
        let workers: Vec<_> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let mut conn_id = 0u64;
        loop {
            if signals::termination_requested() {
                inner.begin_drain();
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    conn_id += 1;
                    inner.count(names::SERVE_CONNECTIONS, 1);
                    let inner = Arc::clone(&inner);
                    thread::Builder::new()
                        .name(format!("serve-conn-{conn_id}"))
                        .spawn(move || handle_connection(&inner, stream, conn_id))
                        .map(|_| ())
                        .unwrap_or(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if inner.draining() && inner.idle() {
                        break;
                    }
                    thread::sleep(poll);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Admission is closed and the last admitted job has finished:
        // release the workers and hand the final tallies back.
        inner.shutdown.store(true, Ordering::Relaxed);
        inner.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        // Defense in depth: `submit`'s locked draining re-check makes
        // post-idle stragglers impossible, but if one ever appears it
        // must still reach a terminal, queryable state rather than sit
        // Queued in a daemon with no workers.
        let stragglers: Vec<QueuedJob> =
            inner.queue.lock().expect("serve queue poisoned").drain(..).collect();
        for job in stragglers {
            inner.queued.fetch_sub(1, Ordering::Relaxed);
            inner.quotas.release(&job.client);
            inner.jobs.lock().expect("serve job table poisoned").insert(job.id, Slot::Cancelled);
            inner.count(names::SERVE_CANCELLED, 1);
        }
        // Final flush after the workers are gone: stage-boundary flushes
        // make this mostly `unchanged` (and then it makes no storage
        // call), but it persists what a job's failed flush handed back
        // to the cache.
        if inner.cfg.options.incremental {
            let flushed = rock_supervisor::flush_subartifacts(&inner.store, &inner.corpus);
            inner.metrics.lock().expect("serve metrics poisoned").merge_from(&flushed);
        }
        Ok(inner.summary())
    }
}

/// One worker: pop, execute under containment, record the terminal
/// state, release the quota slot. A panic in a job poisons nothing —
/// the worker records a typed failure and keeps popping.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("serve queue poisoned");
            loop {
                if !inner.paused.load(Ordering::Relaxed) {
                    if let Some(job) = queue.pop_front() {
                        // Still under the queue lock: the queued →
                        // running hand-off must be invisible to the
                        // accept loop's idle check, or a drain could
                        // conclude "idle" while this job is between
                        // pop and execute.
                        inner.queued.fetch_sub(1, Ordering::Relaxed);
                        inner.running.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                }
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("serve queue poisoned")
                    .0;
            }
        };
        inner.jobs.lock().expect("serve job table poisoned").insert(job.id, Slot::Running);
        let ctx = match &inner.cfg.tracer {
            Some(t) => TraceCtx::with_level(t, inner.cfg.trace_level),
            None => TraceCtx::disabled(),
        };
        let span = ctx.span(names::SERVE_REQUEST, job.id);
        let slot = match catch_unwind(AssertUnwindSafe(|| inner.execute(&job))) {
            Ok(slot) => slot,
            Err(panic) => {
                inner.count(names::SERVE_PANICS_CONTAINED, 1);
                Slot::Done {
                    exit_code: exit::FAILED,
                    outcome: "failed".to_string(),
                    result_fp: result_fp(&rock_supervisor::JobOutput::None),
                    report_json: format!(
                        "{{\"name\":\"{}\",\"outcome\":\"failed\",\"reason\":\"panicked: {}\"}}",
                        json_escape(&job.name),
                        json_escape(&panic_message(&*panic))
                    ),
                }
            }
        };
        drop(span);
        inner.jobs.lock().expect("serve job table poisoned").insert(job.id, slot);
        inner.quotas.release(&job.client);
        inner.running.fetch_sub(1, Ordering::Relaxed);
        inner.count(names::SERVE_COMPLETED, 1);
    }
}

/// Per-connection protocol driver. Reads are buffered and polled so a
/// trickling writer cannot desynchronize framing and a dead one is
/// reaped by the idle timeout; writes run under the socket write
/// timeout and the per-connection send budget.
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream, conn_id: u64) {
    let ctx = match &inner.cfg.tracer {
        Some(t) => TraceCtx::with_level(t, inner.cfg.trace_level),
        None => TraceCtx::disabled(),
    };
    let _span = ctx.span(names::SERVE_CONNECTION, conn_id);
    let mut conn = Conn::new(inner, stream);
    if conn.configure().is_err() {
        return;
    }
    let mut hello: Option<(u16, String)> = None;
    loop {
        let body = match conn.next_frame() {
            Ok(Some(body)) => body,
            Ok(None) => return, // closed, idle-reaped, or shutdown
            Err(FrameError::TooLarge { claimed, max }) => {
                inner.count(names::SERVE_PROTOCOL_ERRORS, 1);
                let _ = conn.send(&Response::ProtocolError {
                    message: format!("frame of {claimed} bytes exceeds the {max}-byte cap"),
                });
                return;
            }
            Err(_) => return,
        };
        inner.count(names::SERVE_REQUESTS, 1);
        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(e) => {
                inner.count(names::SERVE_PROTOCOL_ERRORS, 1);
                let _ = conn.send(&Response::ProtocolError { message: e.to_string() });
                return;
            }
        };
        let response = match (&request, &hello) {
            (Request::Hello { version, client }, _) => {
                if *version < SERVE_MIN_PROTOCOL_VERSION {
                    inner.count(names::SERVE_PROTOCOL_ERRORS, 1);
                    let _ = conn.send(&Response::ProtocolError {
                        message: format!(
                            "protocol version {version} below the supported minimum \
                             {SERVE_MIN_PROTOCOL_VERSION}"
                        ),
                    });
                    return;
                }
                let negotiated = (*version).min(SERVE_PROTOCOL_VERSION);
                hello = Some((negotiated, client.clone()));
                Response::HelloOk { version: negotiated }
            }
            (_, None) => {
                inner.count(names::SERVE_PROTOCOL_ERRORS, 1);
                let _ = conn.send(&Response::ProtocolError {
                    message: "first frame must be Hello".to_string(),
                });
                return;
            }
            (Request::Submit { name, deadline_ms, image }, Some((_, client))) => {
                inner.submit(client, name.clone(), *deadline_ms, image.clone())
            }
            (Request::Status { job }, Some(_)) => {
                Response::JobStatus { job: *job, state: inner.status(*job) }
            }
            (Request::Cancel { job }, Some(_)) => {
                Response::JobStatus { job: *job, state: inner.cancel(*job) }
            }
            (Request::Drain, Some(_)) => {
                inner.begin_drain();
                Response::DrainStarted {
                    queued: inner.queued.load(Ordering::Relaxed),
                    running: inner.running.load(Ordering::Relaxed),
                }
            }
        };
        if conn.send(&response).is_err() {
            return;
        }
    }
}

/// One connection's transport state: the buffered reader, the send
/// budget, and the idle clock.
struct Conn<'a> {
    inner: &'a Arc<Inner>,
    stream: TcpStream,
    buf: Vec<u8>,
    sent_bytes: usize,
    last_activity: Instant,
}

impl<'a> Conn<'a> {
    fn new(inner: &'a Arc<Inner>, stream: TcpStream) -> Conn<'a> {
        Conn { inner, stream, buf: Vec::new(), sent_bytes: 0, last_activity: Instant::now() }
    }

    fn configure(&mut self) -> io::Result<()> {
        let cfg = &self.inner.cfg;
        self.stream.set_nodelay(true)?;
        self.stream.set_read_timeout(Some(Duration::from_millis(cfg.poll_ms.max(1))))?;
        self.stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))))?;
        Ok(())
    }

    /// The next complete frame body. `Ok(None)`: the connection ended
    /// (peer close, idle reap, or daemon shutdown) and the handler
    /// should return quietly.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let max = self.inner.cfg.max_frame_bytes;
        let idle = Duration::from_millis(self.inner.cfg.idle_timeout_ms.max(1));
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(body) = extract_frame(&mut self.buf, max)? {
                self.last_activity = Instant::now();
                return Ok(Some(body));
            }
            if self.inner.shutdown.load(Ordering::Relaxed) {
                return Ok(None);
            }
            if self.last_activity.elapsed() > idle {
                return Ok(None);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Sends one response under the write timeout and the send budget.
    fn send(&mut self, response: &Response) -> io::Result<()> {
        let body = response.encode();
        let budget = self.inner.cfg.send_budget_bytes;
        if budget > 0 {
            self.sent_bytes = self.sent_bytes.saturating_add(4 + body.len());
            if self.sent_bytes > budget {
                self.inner.count(names::SERVE_SLOW_CLIENT_DROPS, 1);
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "per-connection send budget exhausted",
                ));
            }
        }
        write_frame(&mut self.stream, &body).inspect_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
                self.inner.count(names::SERVE_SLOW_CLIENT_DROPS, 1);
            }
        })
    }
}

/// Pops one complete frame off the front of `buf`, if present. The cap
/// is checked against the *claimed* length, before any body bytes are
/// waited for.
fn extract_frame(buf: &mut Vec<u8>, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let claimed = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if claimed > max {
        return Err(FrameError::TooLarge { claimed, max });
    }
    if buf.len() < 4 + claimed {
        return Ok(None);
    }
    let body = buf[4..4 + claimed].to_vec();
    buf.drain(..4 + claimed);
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_frame_handles_partials_and_caps() {
        let mut buf = Vec::new();
        assert!(extract_frame(&mut buf, 64).unwrap().is_none());
        buf.extend_from_slice(&5u32.to_le_bytes());
        assert!(extract_frame(&mut buf, 64).unwrap().is_none(), "body not here yet");
        buf.extend_from_slice(b"abc");
        assert!(extract_frame(&mut buf, 64).unwrap().is_none(), "still short");
        buf.extend_from_slice(b"de");
        assert_eq!(extract_frame(&mut buf, 64).unwrap().unwrap(), b"abcde");
        assert!(buf.is_empty());
        // A hostile length trips the cap before any body arrives.
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(matches!(extract_frame(&mut buf, 64), Err(FrameError::TooLarge { .. })));
    }
}

//! The daemon's robustness contract, end to end over real sockets:
//!
//! * **Overload**: with a K-deep queue and ≥3·K concurrent submissions
//!   (including one over-quota tenant and one poisoned, panicking job),
//!   every shed request gets a *typed* rejection, every admitted job
//!   completes to a terminal state, and the serving loop survives the
//!   panic and keeps serving.
//! * **Drain + restart**: a job interrupted at a stage boundary (its
//!   stages flushed) on one daemon resumes on a *restarted* daemon over
//!   the same store and produces a result bit-identical — compared by
//!   content fingerprint — to an uninterrupted run.
//! * **Persistence counts**: the per-job flush counts plus the drain
//!   flush's add up to the daemon's totals and to the files on disk.
//! * **Protocol discipline**: bad versions, Hello-less requests, and
//!   garbage frames get typed protocol errors and a close, never a
//!   wedged daemon.
//! * **Slow clients**: a reader that exhausts its send budget is
//!   dropped; its jobs keep running and stay queryable elsewhere.

use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use rock::binary::image_to_bytes;
use rock::core::{suite, FaultPlan, StageId};
use rock::serve::wire::{JobState, RejectReason, Request, Response};
use rock::serve::{result_fp, DrainSummary, ServeClient, ServeConfig, Server, ServerHandle};
use rock::supervisor::{decode_snapshot, ArtifactStore, Supervisor};
use rock::trace::{names, parse_json, Json};

/// A scratch artifact-store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rock-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn small_image() -> Vec<u8> {
    image_to_bytes(&suite::streams_example().compile().expect("compiles").stripped_image())
}

fn big_image() -> Vec<u8> {
    image_to_bytes(&suite::stress_program(2, 2, 2).compile().expect("compiles").stripped_image())
}

/// Binds and runs a daemon on a background thread; fast poll ticks keep
/// the tests snappy.
fn start(
    mut cfg: ServeConfig,
) -> (SocketAddr, ServerHandle, thread::JoinHandle<std::io::Result<DrainSummary>>) {
    cfg.poll_ms = 2;
    let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn accepted(response: Response) -> u64 {
    match response {
        Response::Accepted { job } => job,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

fn done(state: JobState) -> (u8, String, u64, String) {
    match state {
        JobState::Done { exit_code, outcome, result_fp, report_json } => {
            (exit_code, outcome, result_fp, report_json)
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

/// One counter of a job report's metrics document.
fn report_counter(report_json: &str, name: &str) -> u64 {
    let report = parse_json(report_json).unwrap_or_else(|e| panic!("{e}: {report_json}"));
    report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no {name} in {report_json}")) as u64
}

#[test]
fn overload_sheds_typed_completes_admitted_and_survives_panics() {
    let scratch = Scratch::new("overload");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.queue_capacity = 4; // K
    cfg.workers = 2;
    cfg.quota.burst = 4;
    cfg.quota.refill_per_sec = 0; // deterministic: tokens never return
    cfg.quota.max_inflight = 0;
    let (addr, handle, join) = start(cfg);
    let image = small_image();

    // A poisoned job that panics inside the worker, before anything the
    // supervisor could contain.
    handle.poison_job("boom");
    let mut ctl = ServeClient::connect(addr, "ctl").expect("connect");
    let boom = accepted(ctl.submit("boom", 0, &image).unwrap());
    let (exit_code, outcome, _, report) = done(ctl.wait(boom, 10, 60_000).unwrap());
    assert_eq!(outcome, "failed", "a panicking job fails typed: {report}");
    assert_ne!(exit_code, 0);
    assert!(report.contains("panicked"), "{report}");
    assert_eq!(handle.counter(names::SERVE_PANICS_CONTAINED), 1);

    // ≥ 3·K concurrent submissions: 5 tenants × 3 jobs + 1 greedy × 12.
    let mut threads = Vec::new();
    for t in 0..5 {
        let image = image.clone();
        threads.push(thread::spawn(move || {
            let mut c = ServeClient::connect(addr, &format!("tenant-{t}")).expect("connect");
            let mut out = Vec::new();
            for j in 0..3 {
                out.push(c.submit(&format!("t{t}-j{j}"), 0, &image).unwrap());
            }
            out
        }));
    }
    {
        let image = image.clone();
        threads.push(thread::spawn(move || {
            let mut c = ServeClient::connect(addr, "greedy").expect("connect");
            (0..12).map(|j| c.submit(&format!("g-{j}"), 0, &image).unwrap()).collect()
        }));
    }
    let mut jobs = Vec::new();
    let mut rejections = Vec::new();
    for t in threads {
        for response in t.join().expect("client thread") {
            match response {
                Response::Accepted { job } => jobs.push(job),
                Response::Rejected { reason, detail } => rejections.push((reason, detail)),
                other => panic!("untyped response under overload: {other:?}"),
            }
        }
    }
    assert_eq!(jobs.len() + rejections.len(), 27, "every submission got a typed answer");
    // The greedy tenant burned its 4 burst tokens with refill 0: at
    // least 8 of its 12 submissions are over quota by construction.
    let quota = rejections.iter().filter(|(r, _)| *r == RejectReason::QuotaExceeded).count();
    assert!(quota >= 8, "greedy tenant must shed ≥8, saw {quota}");
    assert!(
        rejections.iter().all(|(r, d)| {
            matches!(r, RejectReason::QuotaExceeded | RejectReason::QueueFull) && !d.is_empty()
        }),
        "only quota/queue rejections with detail text here: {rejections:?}"
    );
    // Every admitted job reaches a terminal Done, all identical results.
    let mut fps = Vec::new();
    for job in &jobs {
        let (exit_code, outcome, fp, report) = done(ctl.wait(*job, 10, 120_000).unwrap());
        assert_eq!((exit_code, outcome.as_str()), (0, "ok"), "job {job}: {report}");
        fps.push(fp);
    }
    assert!(fps.windows(2).all(|w| w[0] == w[1]), "same image, same result bits");

    // The daemon is still healthy after all of it.
    let after = accepted(ctl.submit("after-the-storm", 0, &image).unwrap());
    let (_, outcome, _, _) = done(ctl.wait(after, 10, 60_000).unwrap());
    assert_eq!(outcome, "ok");

    handle.drain();
    let summary = join.join().expect("server thread").expect("clean drain");
    assert_eq!(summary.panics_contained, 1);
    assert_eq!(summary.accepted, jobs.len() as u64 + 2, "storm + boom + after");
    assert_eq!(summary.completed, summary.accepted, "every admitted job finished");
    assert_eq!(summary.rejected, rejections.len() as u64);
}

#[test]
fn drain_midflight_then_restart_resumes_bit_identical() {
    let scratch = Scratch::new("restart");
    let image = big_image();
    let cfg = ServeConfig::new(&scratch.0);

    // Reference: an uninterrupted run under the daemon's exact config,
    // on a private store.
    let ref_scratch = Scratch::new("restart-ref");
    let reference = {
        let sup = Supervisor::new(
            cfg.config,
            ArtifactStore::open(&ref_scratch.0).unwrap(),
            cfg.options.clone(),
        );
        let result = sup.run_job("flaky", &image);
        assert_eq!(result.report.outcome.name(), "ok");
        result_fp(&result.output)
    };

    // Daemon #1: the job is rigged to crash right after the Training
    // stage's boundary flush.
    let (addr, handle, join) = start(cfg.clone());
    handle.set_fault_plan("flaky", Arc::new(FaultPlan::new().interrupt_after(StageId::Training)));
    let mut c = ServeClient::connect(addr, "tenant").expect("connect");
    let job = accepted(c.submit("flaky", 0, &image).unwrap());
    let (exit_code, outcome, fp, _) = done(c.wait(job, 10, 120_000).unwrap());
    assert_eq!(outcome, "interrupted", "the fault fired");
    assert_ne!(exit_code, 0);
    assert_ne!(fp, reference, "an interrupted job carries no result");
    // Drain over the wire; the daemon exits cleanly.
    c.drain().unwrap();
    let summary = join.join().expect("server thread").expect("clean drain");
    assert_eq!(summary.completed, summary.accepted);

    // Daemon #2 on the SAME store, no fault plan: it preloads what the
    // first daemon flushed, the tiers answer the two stages that ran,
    // and the resumed run lands on the reference bits.
    let (addr, _handle, join) = start(ServeConfig::new(&scratch.0));
    let mut c = ServeClient::connect(addr, "tenant").expect("connect");
    let job = accepted(c.submit("flaky", 0, &image).unwrap());
    let (exit_code, outcome, fp, report) = done(c.wait(job, 10, 120_000).unwrap());
    assert_eq!((exit_code, outcome.as_str()), (0, "ok"), "{report}");
    assert_eq!(fp, reference, "resumed result must be bit-identical to an uninterrupted run");
    for tier in [names::CORPUS_TRACELET_MISS, names::CORPUS_SLM_MISS] {
        assert_eq!(report_counter(&report, tier), 0, "the restart reused {tier}: {report}");
    }
    c.drain().unwrap();
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn per_job_flush_counts_and_the_drain_flush_sum_to_the_daemon_totals() {
    let scratch = Scratch::new("persistence-counts");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.workers = 2;
    let (addr, handle, join) = start(cfg);
    // Distinct and repeated images from two tenants, two workers racing
    // their stage-boundary flushes over one shared corpus.
    let images = [small_image(), big_image(), small_image(), big_image()];
    let mut clients = [
        ServeClient::connect(addr, "a").expect("connect"),
        ServeClient::connect(addr, "b").unwrap(),
    ];
    let mut jobs = Vec::new();
    for (i, image) in images.iter().enumerate() {
        let c = &mut clients[i % 2];
        jobs.push((i % 2, accepted(c.submit(&format!("job-{i}"), 0, image).unwrap())));
    }
    let (mut flushed, mut io_errors) = (0, 0);
    for (c, job) in jobs {
        let (exit_code, _, _, report) = done(clients[c].wait(job, 10, 120_000).unwrap());
        assert_eq!(exit_code, 0, "{report}");
        flushed += report_counter(&report, names::INCR_FLUSHED);
        io_errors += report_counter(&report, names::INCR_IO_ERRORS);
    }
    assert!(flushed > 0, "the jobs' flushes persisted their work");
    // Before the drain the registry holds exactly the jobs' counts (the
    // preload of an empty store counts nothing), each counted once.
    assert_eq!(handle.counter(names::INCR_FLUSHED), flushed);
    assert_eq!(handle.counter(names::INCR_IO_ERRORS), io_errors);
    assert_eq!(handle.counter(names::INCR_UNCHANGED), 0, "only the drain flush counts unchanged");

    handle.drain();
    join.join().expect("server thread").expect("clean drain");
    // The drain flush found every entry persisted and wrote nothing, so
    // the totals are the jobs' sums plus its counts — and they match the
    // entries in the segment files on disk, each written exactly once.
    let on_disk: u64 = fs::read_dir(scratch.0.join("sub"))
        .unwrap()
        .map(|e| fs::read(e.unwrap().path()).unwrap())
        .map(|bytes| decode_snapshot(&bytes).expect("an intact segment").len() as u64)
        .sum();
    assert_eq!(handle.counter(names::INCR_FLUSHED), flushed, "the drain flush had nothing left");
    assert_eq!(handle.counter(names::INCR_FLUSHED), on_disk, "one flush count per entry");
    assert_eq!(handle.counter(names::INCR_UNCHANGED), on_disk, "the drain flush saw every entry");
    assert_eq!(handle.counter(names::INCR_IO_ERRORS), io_errors);
}

#[test]
fn protocol_violations_get_typed_errors_and_the_daemon_keeps_serving() {
    let scratch = Scratch::new("protocol");
    let (addr, handle, join) = start(ServeConfig::new(&scratch.0));

    // A protocol version below the supported minimum is refused.
    let Err(err) = ServeClient::connect_with_version(addr, "old", 0) else {
        panic!("a below-minimum version must be refused");
    };
    assert!(err.to_string().contains("version"), "{err}");

    // Requests before Hello are refused with a typed error.
    let mut raw = TcpStream::connect(addr).unwrap();
    let body = Request::Status { job: 1 }.encode();
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    let reply = read_one_frame(&mut raw);
    match Response::decode(&reply).unwrap() {
        Response::ProtocolError { message } => assert!(message.contains("Hello"), "{message}"),
        other => panic!("expected ProtocolError, got {other:?}"),
    }

    // Garbage bodies get a typed error too.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&4u32.to_le_bytes()).unwrap();
    raw.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    let reply = read_one_frame(&mut raw);
    assert!(matches!(Response::decode(&reply).unwrap(), Response::ProtocolError { .. }));

    // An absurd frame length is refused without allocation.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let reply = read_one_frame(&mut raw);
    assert!(matches!(Response::decode(&reply).unwrap(), Response::ProtocolError { .. }));

    assert!(handle.counter(names::SERVE_PROTOCOL_ERRORS) >= 4);

    // After all that abuse, a well-behaved client is served normally.
    let image = small_image();
    let mut c = ServeClient::connect(addr, "fine").expect("connect");
    let job = accepted(c.submit("fine", 0, &image).unwrap());
    let (_, outcome, _, _) = done(c.wait(job, 10, 60_000).unwrap());
    assert_eq!(outcome, "ok");

    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn oversized_images_and_full_queues_reject_typed() {
    let scratch = Scratch::new("shed");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.max_image_bytes = 64;
    cfg.queue_capacity = 1;
    cfg.workers = 1;
    let (addr, handle, join) = start(cfg);
    let mut c = ServeClient::connect(addr, "tenant").expect("connect");

    // Oversized: rejected before any quota or queue accounting.
    let huge = vec![0u8; 65];
    match c.submit("huge", 0, &huge).unwrap() {
        Response::Rejected { reason, detail } => {
            assert_eq!(reason, RejectReason::TooLarge);
            assert!(detail.contains("65"), "{detail}");
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    assert_eq!(handle.counter(names::SERVE_REJECTED_TOO_LARGE), 1);

    // Queue-full: with the workers paused, a 1-deep queue sheds every
    // submission past the first — exactly, deterministically.
    let image = small_image();
    assert!(image.len() > 64);
    let mut cfg2 = ServeConfig::new(&scratch.0);
    cfg2.queue_capacity = 1;
    cfg2.workers = 1;
    cfg2.quota.burst = 0; // isolate the queue check from the bucket
    let (addr2, handle2, join2) = start(cfg2);
    handle2.pause_workers(true);
    let mut c2 = ServeClient::connect(addr2, "tenant").expect("connect");
    let mut accepted_jobs = Vec::new();
    let mut queue_full = 0;
    for j in 0..16 {
        match c2.submit(&format!("burst-{j}"), 0, &image).unwrap() {
            Response::Accepted { job } => accepted_jobs.push(job),
            Response::Rejected { reason: RejectReason::QueueFull, detail } => {
                assert!(detail.contains("capacity"), "{detail}");
                queue_full += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(accepted_jobs.len(), 1, "a 1-deep queue admits exactly one while paused");
    assert_eq!(queue_full, 15);
    assert_eq!(handle2.counter(names::SERVE_REJECTED_QUEUE_FULL), 15);
    handle2.pause_workers(false);
    for job in accepted_jobs {
        let (_, outcome, _, _) = done(c2.wait(job, 10, 120_000).unwrap());
        assert_eq!(outcome, "ok");
    }
    handle2.drain();
    join2.join().expect("server thread").expect("clean drain");
    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn cancel_pulls_queued_jobs_and_frees_their_quota() {
    let scratch = Scratch::new("cancel");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.workers = 1;
    cfg.queue_capacity = 16;
    cfg.quota.max_inflight = 3; // cancel must free a slot
    cfg.quota.burst = 0;
    let (addr, handle, join) = start(cfg);
    let image = small_image();
    let mut c = ServeClient::connect(addr, "tenant").expect("connect");
    // Paused workers keep all three admitted jobs in the queue.
    handle.pause_workers(true);
    let a = accepted(c.submit("a", 0, &image).unwrap());
    let b = accepted(c.submit("b", 0, &image).unwrap());
    let d = accepted(c.submit("d", 0, &image).unwrap());
    assert!(matches!(c.status(d).unwrap(), JobState::Queued { position: 2 }));
    // Inflight is 3 of 3: the next submit is shed...
    match c.submit("e", 0, &image).unwrap() {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::QuotaExceeded),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // ...until cancelling a still-queued job frees its slot.
    match c.cancel(d).unwrap() {
        JobState::Cancelled => {}
        other => panic!("job d should still be queued, was {other:?}"),
    }
    assert_eq!(handle.counter(names::SERVE_CANCELLED), 1);
    let e = accepted(c.submit("e", 0, &image).unwrap());
    handle.pause_workers(false);
    for job in [a, b, e] {
        let (_, outcome, _, _) = done(c.wait(job, 10, 120_000).unwrap());
        assert_eq!(outcome, "ok");
    }
    assert!(matches!(c.status(d).unwrap(), JobState::Cancelled), "cancellation is terminal");
    handle.drain();
    let summary = join.join().expect("server thread").expect("clean drain");
    assert_eq!(summary.cancelled, 1);
}

#[test]
fn concurrent_submit_and_status_never_deadlock() {
    // Regression: `submit` once nested the queue lock inside the jobs
    // lock while `status` nested them the other way round — an AB-BA
    // inversion two connection threads could deadlock on, wedging the
    // daemon. The locks are now never held together; this drill wedges
    // (and times the suite out) if the nesting ever comes back.
    let scratch = Scratch::new("lockorder");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.queue_capacity = 2;
    cfg.workers = 1;
    cfg.quota.burst = 0;
    cfg.quota.max_inflight = 0;
    let (addr, handle, join) = start(cfg);
    let image = small_image();
    // A seed job pinned in the queue so Status always takes the
    // Queued path (jobs table read + queue position lookup).
    handle.pause_workers(true);
    let mut c = ServeClient::connect(addr, "seed").expect("connect");
    let queued = accepted(c.submit("seed", 0, &image).unwrap());

    let submitter = {
        let image = image.clone();
        thread::spawn(move || {
            let mut c = ServeClient::connect(addr, "submitter").expect("connect");
            // One more Accepted (capacity 2), then QueueFull forever —
            // both admission paths touch the queue and jobs locks.
            for j in 0..300 {
                let _ = c.submit(&format!("s-{j}"), 0, &image).unwrap();
            }
        })
    };
    let pollers: Vec<_> = (0..2)
        .map(|p| {
            thread::spawn(move || {
                let mut c = ServeClient::connect(addr, &format!("poller-{p}")).expect("connect");
                for _ in 0..300 {
                    match c.status(queued).unwrap() {
                        JobState::Queued { position } => assert_eq!(position, 0),
                        other => panic!("pinned seed job reached {other:?}"),
                    }
                }
            })
        })
        .collect();
    submitter.join().expect("submitter thread");
    for p in pollers {
        p.join().expect("poller thread");
    }
    handle.pause_workers(false);
    let (_, outcome, _, _) = done(c.wait(queued, 10, 120_000).unwrap());
    assert_eq!(outcome, "ok");
    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

#[test]
fn submissions_racing_a_drain_are_admitted_or_shed_never_stranded() {
    // Regression: a Submit that passed the draining check could push
    // its job after the accept loop had already concluded "draining
    // and idle" and shut the workers down — Accepted on the wire, but
    // Queued forever. The draining re-check now happens under the same
    // queue lock the idle decision holds, so every racer is either
    // admitted (and completes) or shed with a typed Draining.
    let scratch = Scratch::new("drainrace");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.queue_capacity = 64;
    cfg.workers = 2;
    cfg.quota.burst = 0;
    cfg.quota.max_inflight = 0;
    let (addr, handle, join) = start(cfg);
    let image = small_image();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let image = image.clone();
            thread::spawn(move || {
                let mut c = ServeClient::connect(addr, &format!("racer-{t}")).expect("connect");
                let mut accepted = 0u64;
                for j in 0..10 {
                    match c.submit(&format!("r{t}-{j}"), 0, &image) {
                        Ok(Response::Accepted { .. }) => accepted += 1,
                        Ok(Response::Rejected { reason: RejectReason::Draining, .. }) => {}
                        Ok(other) => panic!("untyped response racing a drain: {other:?}"),
                        // The daemon finished its drain and closed the
                        // connection: nothing further can be admitted.
                        Err(_) => break,
                    }
                }
                accepted
            })
        })
        .collect();
    thread::sleep(std::time::Duration::from_millis(20));
    handle.drain();
    let accepted: u64 = threads.into_iter().map(|t| t.join().expect("racer thread")).sum();
    let summary = join.join().expect("server thread").expect("clean drain");
    assert_eq!(summary.accepted, accepted, "every Accepted on the wire is in the tally");
    assert_eq!(
        summary.completed + summary.cancelled,
        summary.accepted,
        "every admitted job reached a terminal state across the drain"
    );
    assert_eq!(summary.cancelled, 0, "no straggler needed the post-join sweep");
}

#[test]
fn slow_reader_exhausts_send_budget_but_its_jobs_survive() {
    let scratch = Scratch::new("slow");
    let mut cfg = ServeConfig::new(&scratch.0);
    // Generous enough for a handful of responses (a single Done status
    // carries a full JSON report), tiny enough that a polling loop
    // overruns it quickly.
    cfg.send_budget_bytes = 4096;
    let (addr, handle, join) = start(cfg);
    let image = small_image();
    let mut slow = ServeClient::connect(addr, "slow").expect("connect");
    let job = accepted(slow.submit("slow-job", 0, &image).unwrap());
    // Status responses eventually overrun the 256-byte budget; the
    // daemon drops the connection rather than buffering for a reader
    // that never keeps up.
    let mut dropped = false;
    for _ in 0..1_000 {
        if slow.status(job).is_err() {
            dropped = true;
            break;
        }
    }
    assert!(dropped, "the send budget must eventually drop the connection");
    assert!(handle.counter(names::SERVE_SLOW_CLIENT_DROPS) >= 1);
    // The job is unaffected and fully queryable from a fresh connection.
    let mut fresh = ServeClient::connect(addr, "fresh").expect("connect");
    let (_, outcome, _, _) = done(fresh.wait(job, 10, 60_000).unwrap());
    assert_eq!(outcome, "ok");
    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

/// Reads one `u32 LE length | body` frame off a raw socket.
fn read_one_frame(stream: &mut TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

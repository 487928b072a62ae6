//! Serve-daemon benchmarks: the wire + admission + scheduling overhead
//! a tenant pays per job over loopback TCP, against the same job run
//! directly on a `Supervisor` — plus admission-path throughput for
//! typed rejections (the cost of saying no under overload). A
//! machine-readable `BENCH_serve.json` summary is written at the
//! workspace root.
//!
//! Set `ROCK_BENCH_SMOKE=1` to run a tiny subset (CI smoke); its summary
//! goes to `target/bench-smoke/` instead.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rock_bench::{smoke, write_record};
use rock_binary::image_to_bytes;
use rock_core::suite::streams_example;
use rock_serve::wire::Response;
use rock_serve::{ServeClient, ServeConfig, Server};
use rock_supervisor::{ArtifactStore, Supervisor};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-bench-serve-{tag}-{}", std::process::id()));
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

fn image() -> Vec<u8> {
    image_to_bytes(&streams_example().compile().expect("compiles").stripped_image())
}

/// Daemon round-trip: submit over loopback, poll to `Done`. The store
/// is warm after the first job, so steady-state numbers isolate the
/// serving overhead (framing, admission, queue hop, status polls) from
/// reconstruction work.
fn bench_serve_roundtrip(c: &mut Criterion) {
    let scratch = Scratch::new("roundtrip");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.poll_ms = 1;
    // Round-trip latency is the measurement; quotas must never shed.
    cfg.quota.burst = u64::MAX / 2000;
    let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let bytes = image();
    let mut client = ServeClient::connect(addr, "bench").expect("connect");
    let mut seq = 0u64;
    c.bench_function("serve/roundtrip_warm", |b| {
        b.iter(|| {
            seq += 1;
            let Response::Accepted { job } =
                client.submit(&format!("job-{seq}"), 0, &bytes).expect("submit")
            else {
                panic!("bench submission rejected")
            };
            client.wait(job, 1, 60_000).expect("job completes")
        })
    });
    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

/// The same warm job, no daemon: direct supervisor invocation.
fn bench_direct_supervisor(c: &mut Criterion) {
    let scratch = Scratch::new("direct");
    let cfg = ServeConfig::new(&scratch.0);
    let bytes = image();
    let mut seq = 0u64;
    c.bench_function("serve/direct_warm", |b| {
        b.iter(|| {
            seq += 1;
            let sup = Supervisor::new(
                cfg.config,
                ArtifactStore::open(&scratch.0).expect("store"),
                cfg.options.clone(),
            );
            sup.run_job(&format!("job-{seq}"), &bytes)
        })
    });
}

/// How fast the daemon can shed: typed quota rejections per second
/// (burst 0 via an exhausted bucket, refill 0 keeps it deterministic).
fn bench_admission_rejection(c: &mut Criterion) {
    let scratch = Scratch::new("shed");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.poll_ms = 1;
    cfg.quota.burst = 1;
    cfg.quota.refill_per_sec = 0;
    let server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let bytes = image();
    let mut client = ServeClient::connect(addr, "greedy").expect("connect");
    // Burn the single token; every further submit is a typed rejection.
    let first = client.submit("seed", 0, &bytes).expect("submit");
    assert!(matches!(first, Response::Accepted { .. }));
    c.bench_function("serve/typed_rejection", |b| {
        b.iter(|| {
            let r = client.submit("over", 0, &bytes).expect("submit");
            assert!(matches!(r, Response::Rejected { .. }));
            r
        })
    });
    handle.drain();
    join.join().expect("server thread").expect("clean drain");
}

/// Instrumented medians, summarized to `BENCH_serve.json`.
fn emit_bench_json(_c: &mut Criterion) {
    let iters = if smoke() { 10 } else { 50 };
    let bytes = image();

    let scratch = Scratch::new("json");
    let mut cfg = ServeConfig::new(&scratch.0);
    cfg.poll_ms = 1;
    cfg.quota.burst = u64::MAX / 2000;
    let server = Server::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = ServeClient::connect(addr, "bench").expect("connect");

    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };

    let mut roundtrip = Vec::new();
    for i in 0..iters {
        let t = Instant::now();
        let Response::Accepted { job } =
            client.submit(&format!("rt-{i}"), 0, &bytes).expect("submit")
        else {
            panic!("bench submission rejected")
        };
        client.wait(job, 1, 60_000).expect("completes");
        roundtrip.push(t.elapsed().as_secs_f64() * 1e3);
    }
    handle.drain();
    join.join().expect("server thread").expect("clean drain");

    let mut direct = Vec::new();
    for i in 0..iters {
        let t = Instant::now();
        let sup = Supervisor::new(
            cfg.config,
            ArtifactStore::open(&scratch.0).expect("store"),
            cfg.options.clone(),
        );
        sup.run_job(&format!("rt-{i}"), &bytes);
        direct.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let rt = median(&mut roundtrip);
    let dx = median(&mut direct);
    let json = format!(
        "{{\"roundtrip_warm_ms\":{rt:.3},\"direct_warm_ms\":{dx:.3},\
         \"daemon_overhead_ms\":{:.3},\"iters\":{iters}}}\n",
        rt - dx
    );
    let path = write_record("BENCH_serve.json", &json);
    eprintln!("{}: {json}", path.display());
}

criterion_group!(
    benches,
    bench_serve_roundtrip,
    bench_direct_supervisor,
    bench_admission_rejection,
    emit_bench_json
);
criterion_main!(benches);

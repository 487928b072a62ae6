//! rockbench: the seeded end-to-end benchmark of the Rock pipeline.
//!
//! ```text
//! rockbench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke]
//! ```
//!
//! One invocation measures one workload (`paper_suite`, `stress_scale`,
//! `fleet_dedup`, `serve_patch`; see README.md) and checks every output
//! against a reference. An untraced run prints the end-to-end metrics,
//! a traced run the per-layer breakdown; the last line of standard
//! output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`, and the full record
//! goes to `target/rockbench/{full,smoke}/`. The exit code is non-zero
//! when any operation failed or any check did not hold. The closed
//! loops scale their times to a reference host speed (`probe.rs`); the
//! record keeps the raw times as `raw.*`.
//!
//! The closed-loop workloads run in child processes (this binary
//! re-executed with `__workload`), which receive their inputs on
//! standard input, so the input generator's memory stays out of
//! `peak_rss_mb` and every set-up starts in a fresh process.
//! `serve_patch` runs the daemon as such a child (`__daemon`) and
//! drives it from this process.

mod closed;
mod inputs;
mod layers;
mod memvfs;
mod probe;
mod report;
mod serve;
mod stats;

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use report::Report;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    StressScale,
    FleetDedup,
    ServePatch,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::PaperSuite, Workload::StressScale, Workload::FleetDedup, Workload::ServePatch];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::StressScale => "stress_scale",
            Workload::FleetDedup => "fleet_dedup",
            Workload::ServePatch => "serve_patch",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {s:?} (one of {})", known.join(", "))
        })
    }
}

/// Seconds a `--smoke` run measures when `--seconds` is not given.
const SMOKE_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Corrupts one reference fingerprint, so the oracle must fail the
    /// run (exercised by the in-tree guard test).
    force_mismatch: bool,
}

const USAGE: &str =
    "usage: rockbench --workload <paper_suite|stress_scale|fleet_dedup|serve_patch> \
                     --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke] [--force-mismatch]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut force_mismatch = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--force-mismatch" => force_mismatch = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = match (seconds, smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => return Err("--seconds is required outside --smoke".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        force_mismatch,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("__workload") => workload_main(&argv[1..]),
        Some("__daemon") => serve::daemon_main(&argv[1..]),
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("rockbench: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// A child process that is killed and reaped when dropped, so no error
/// path leaves a process behind.
pub struct ChildGuard(pub Option<Child>);

impl ChildGuard {
    pub fn spawn(args: &[&str]) -> std::io::Result<ChildGuard> {
        let exe = std::env::current_exe()?;
        let child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(ChildGuard(Some(child)))
    }

    pub fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not yet reaped")
    }

    /// Waits for exit; returns (exit code, everything left on stdout).
    pub fn finish(mut self) -> std::io::Result<(Option<i32>, String)> {
        let child = self.child();
        drop(child.stdin.take());
        let mut out = String::new();
        let read = child.stdout.take().map_or(Ok(0), |mut stdout| stdout.read_to_string(&mut out));
        let status = child.wait()?;
        read?;
        Ok((status.code(), out))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn run(args: &Args) -> i32 {
    let mode = if args.smoke { "smoke" } else { "full" };
    let dir = PathBuf::from("target").join("rockbench").join(mode);
    let mut report = match args.workload {
        Workload::ServePatch => {
            serve::run(args.seed, args.seconds, args.trace, args.force_mismatch)
        }
        w => closed_loop(w, args),
    };

    let catalogue = report::catalogue(args.trace);
    if args.trace {
        // A layer the workload does not exercise reads 0.
        for (name, _) in catalogue {
            report.metrics.entry(name.to_string()).or_insert(0.0);
        }
    }
    for (name, _) in catalogue {
        if !report.metrics.get(*name).is_some_and(|v| v.is_finite()) {
            report.fail(format!("metric {name} was not measured"));
        }
    }
    if args.trace {
        let residual = report.metrics["harness.residual_pct"];
        report.note(format!("layer residual {residual:.2}% of job time"));
        if residual > layers::MAX_RESIDUAL_PCT {
            report.fail(format!(
                "layer residual {residual:.2}% exceeds {}%",
                layers::MAX_RESIDUAL_PCT
            ));
        }
    }
    let correct = report.failed == 0 && report.attempted > 0;

    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in catalogue {
        println!("{name} {} {unit}", report.metrics.get(*name).copied().unwrap_or(f64::NAN));
    }
    let result = report::result_json(&report, args.trace, correct);
    let header = [
        ("mode", report::json_str(mode)),
        ("workload", report::json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", stats::nproc().to_string()),
        ("commit", report::json_str(&stats::git_commit())),
    ];
    let record = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&record, report::record_json(&report, &header, &result)));
    if let Err(e) = written {
        eprintln!("rockbench: cannot write {}: {e}", record.display());
    }
    println!("{result}");
    i32::from(!correct)
}

/// Generates and references the inputs here, then measures them in
/// child processes: `SETUPS - 1` that only set up, then one that sets up
/// and runs the timed phase.
fn closed_loop(workload: Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let mut inputs = inputs::generate(workload, &mut report);
    if args.force_mismatch {
        inputs[0].expect ^= 1;
    }
    let encoded = inputs::encode(&inputs);
    let seed = args.seed.to_string();
    let trace = u8::from(args.trace).to_string();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for k in 0..closed::SETUPS {
        let seconds = if k + 1 == closed::SETUPS { args.seconds.to_string() } else { "0".into() };
        let spawned = ChildGuard::spawn(&["__workload", workload.name(), &seed, &seconds, &trace])
            .and_then(|mut child| {
                child.child().stdin.take().expect("piped stdin").write_all(&encoded)?;
                child.finish()
            });
        match spawned {
            Ok((Some(0), out)) => {
                if let Err(e) = report.absorb_lines(&out) {
                    report.fail(e);
                }
            }
            Ok((code, _)) => report.fail(format!("workload process exited with {code:?}")),
            Err(e) => report.fail(format!("workload process: {e}")),
        }
        setups.extend(report.metrics.remove("setup_s"));
        raw_setups.extend(report.metrics.remove("raw.setup_s"));
    }
    report.set("setup_s", stats::percentile(&setups, 50.0));
    report.set("raw.setup_s", stats::percentile(&raw_setups, 50.0));
    report.samples("setup_s", setups.len());
    report
}

/// `__workload <name> <seed> <seconds> <trace>`, inputs on
/// standard input, the report as lines on standard output.
fn workload_main(argv: &[String]) -> i32 {
    let parsed = (|| -> Result<_, String> {
        let [name, seed, seconds, trace] = argv else {
            return Err(format!("__workload takes 4 arguments, got {}", argv.len()));
        };
        let mut stdin = Vec::new();
        std::io::stdin().read_to_end(&mut stdin).map_err(|e| e.to_string())?;
        Ok((
            Workload::parse(name)?,
            seed.parse::<u64>().map_err(|e| e.to_string())?,
            seconds.parse::<f64>().map_err(|e| e.to_string())?,
            trace == "1",
            inputs::decode(&stdin)?,
        ))
    })();
    match parsed {
        Ok((workload, seed, seconds, trace, inputs)) => {
            let report = closed::run(workload, &inputs, seed, seconds, trace);
            print!("{}", report.to_lines());
            0
        }
        Err(e) => {
            eprintln!("rockbench __workload: {e}");
            2
        }
    }
}

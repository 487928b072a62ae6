//! `rock` — command-line class-hierarchy reconstructor.
//!
//! ```text
//! rock list                          list suite benchmarks
//! rock gen <bench> <out.rkb>         compile a benchmark to an image file
//!          [--keep-debug]            keep symbols + RTTI (default: strip)
//! rock info <file.rkb>               sections / functions / vtables summary
//! rock disasm <file.rkb>             full disassembly listing
//! rock vtables <file.rkb>            discovered vtables and their slots
//! rock families <file.rkb>           structural analysis (families + candidates)
//! rock reconstruct <file.rkb>        reconstruct the class hierarchy
//!          [--metric kl|js|jsd]      distance criterion (default kl)
//!          [--threads <n>]           worker threads (0 = auto, default)
//!          [--fuel <steps>]          per-function symbolic-execution budget
//!          [--timings]               print per-stage wall clock (work
//!                                    counts, SLM arena sizes among them,
//!                                    are in --metrics)
//!          [--diagnostics]           print coverage + contained faults
//!          [--strict]                fail fast instead of degrading
//!                                    (strict load + abort on first error)
//!          [--dot]                   emit graphviz instead of a tree
//! rock eval <bench>                  Table 2 row for one benchmark
//! rock table2                        the whole Table 2
//! rock batch <file.rkb ...>          supervised batch reconstruction
//!          [--jobs <list>]           read job paths (one per line) from a file
//!          [--store <dir>]           artifact store root (default .rock-store)
//!          [--resume]                persist sub-artifacts at every stage
//!                                    boundary and preload them first, so
//!                                    a rerun reuses every stage that ran
//!          [--max-retries <n>]       retry ladder depth (default 3)
//!          [--deadline <ms>]         per-job watchdog deadline
//!          [--max-errors <n>]        abort batch after n hard failures
//!          [--report <path>]         write the batch report JSON to a file
//!          [--sleep-backoff]         actually sleep retry backoff delays
//!          [--timings]               per-job stage wall clock, then the
//!                                    batch throughput + preload/flush summary
//! rock serve                         multi-tenant reconstruction daemon
//!          [--addr host:port]        bind address (default 127.0.0.1:0)
//!          [--store <dir>]           artifact store root (default .rock-store)
//!          [--port-file <path>]      write the bound address for scripts
//!          [--queue <n>]             admission-queue capacity (default 64)
//!          [--workers <n>]           worker threads (default 4)
//!          [--quota-burst <n>]       per-client token burst (default 32)
//!          [--quota-refill <n>]      tokens per second (0 = never refill)
//!          [--max-inflight <n>]      per-client inflight cap (default 16)
//!          [--deadline <ms>]         default per-job deadline
//!          [--corpus-cap <n>]        corpus-cache entries per tier
//!          [--send-budget <n>]       per-connection send budget, bytes
//!          serves until drained (Drain frame or SIGTERM), then exits 0
//! rock client <addr> <verb>          loopback client for a running daemon
//!          submit <file.rkb> [--wait] | status <job> | cancel <job> | drain
//!          hammer [--clients n] [--jobs n] [--over-quota n] [--burst n] [--slow]
//! ```
//!
//! Exit codes: `0` success; `1` usage / interrupted job; `2` a job
//! degraded (retry ladder or contained faults); `3` a job failed
//! (unloadable image or strict mode); `4` a job blew its deadline;
//! `5` the batch's preload skipped a corrupt sub-artifact. A batch exits
//! with the largest of these.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("rock: {e}");
            ExitCode::FAILURE
        }
    }
}

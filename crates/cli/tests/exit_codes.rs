//! The typed exit codes of `rock batch`, asserted against the real
//! binary (the contract documented in the README).
//!
//! | code | meaning                                        |
//! |------|------------------------------------------------|
//! | 0    | every job ok at full strength                  |
//! | 1    | usage error / interrupted job                  |
//! | 2    | a job degraded (retry ladder, contained fault) |
//! | 3    | a job failed (unloadable image, strict mode)   |
//! | 4    | a job blew its watchdog deadline               |
//! | 5    | the preload skipped a corrupt sub-artifact     |

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use rock_core::SubTier;
use rock_supervisor::decode_snapshot;
use rock_trace::{parse_json, Json};

fn rock(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rock")).args(args).output().expect("spawn rock")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch dir with a generated benchmark image inside.
struct Scratch {
    dir: PathBuf,
    image: String,
    store: String,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-exit-codes-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let image = dir.join("streams.rkb").to_str().unwrap().to_string();
        let out = rock(&["gen", "streams", &image]);
        assert_eq!(code(&out), 0, "gen must succeed: {:?}", out);
        let store = dir.join("store").to_str().unwrap().to_string();
        Scratch { dir, image, store }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn clean_batch_exits_zero_with_a_json_report_per_job() {
    let s = Scratch::new("ok");
    let out = rock(&["batch", &s.image, "--store", &s.store]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = stdout(&out);
    assert!(json.contains("\"outcome\":\"ok\""), "got: {json}");
    assert!(json.contains("\"exit_code\":0"));
    assert!(json.contains("\"name\":\"streams\""));
}

#[test]
fn usage_errors_exit_one() {
    let out = rock(&["batch"]);
    assert_eq!(code(&out), 1, "no jobs is a usage error");
    let out = rock(&["batch", "--bogus-flag"]);
    assert_eq!(code(&out), 1);
}

#[test]
fn a_degraded_job_exits_two() {
    let s = Scratch::new("degraded");
    // One step of fuel starves the behavioral analysis: the run
    // completes with error-severity diagnostics and incomplete
    // coverage, which is the "degraded" outcome.
    let out = rock(&["batch", &s.image, "--store", &s.store, "--fuel", "1"]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    let json = stdout(&out);
    assert!(json.contains("\"outcome\":\"degraded\""), "got: {json}");
    assert!(json.contains("\"exit_code\":2"));
}

#[test]
fn an_unloadable_image_exits_three_without_stopping_healthy_jobs() {
    let s = Scratch::new("failed");
    let bad = s.dir.join("bad.rkb").to_str().unwrap().to_string();
    fs::write(&bad, b"this is not an image").unwrap();
    let out = rock(&["batch", &s.image, &bad, "--store", &s.store]);
    assert_eq!(code(&out), 3, "stdout: {}", stdout(&out));
    let json = stdout(&out);
    assert!(json.contains("\"outcome\":\"ok\""), "healthy job still ran: {json}");
    assert!(json.contains("\"outcome\":\"failed\""));
    assert!(json.contains("unloadable image"));
}

#[test]
fn a_blown_deadline_exits_four_but_still_emits_a_hierarchy() {
    let s = Scratch::new("deadline");
    let out = rock(&["batch", &s.image, "--store", &s.store, "--deadline", "0"]);
    assert_eq!(code(&out), 4, "stdout: {}", stdout(&out));
    let json = stdout(&out);
    assert!(json.contains("\"outcome\":\"deadline\""), "got: {json}");
    // The structural-only fallback ran: the report counts its types.
    let types = json
        .split("\"types\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse::<usize>().ok())
        .expect("types field");
    assert!(types > 0, "fallback hierarchy must be non-empty: {json}");
}

/// The batch's `corpus:` or `incr:` summary line.
fn summary_line(out: &str, prefix: &str) -> String {
    out.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix} in {out}"))
        .into()
}

#[test]
fn corrupt_resume_artifacts_exit_five_and_recompute() {
    let s = Scratch::new("corrupt");
    // First run populates the store.
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    // Damage the segment file the lifting boundary wrote, the one copy
    // of the lifting entry.
    let lifting = fs::read_dir(PathBuf::from(&s.store).join("sub"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|f| {
            let entries = decode_snapshot(&fs::read(f).unwrap()).expect("an intact segment");
            entries.iter().any(|(tier, ..)| *tier == SubTier::Lifting)
        })
        .expect("a segment holds the lifting entry");
    fs::write(&lifting, b"garbage").unwrap();
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume"]);
    assert_eq!(code(&out), 5, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(
        summary_line(&text, "incr:").contains("1 corrupt skipped"),
        "the preload counts the damaged file once: {text}"
    );
    // The job itself still recomputed the lost entry successfully.
    assert!(text.contains("\"outcome\":\"ok\""), "got: {text}");
    assert!(text.contains("\"exit_code\":0"), "the job is fine; the batch carries the 5: {text}");
    assert!(summary_line(&text, "corpus:").contains("liftings 0/1 hit"), "got: {text}");
    // That rerun persisted the entry again: the next one is clean.
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
}

#[test]
fn an_alien_file_in_a_tier_loses_nothing_and_exits_zero() {
    let s = Scratch::new("alien");
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    // A file no flush wrote holds no entry: scrub owns it, and no
    // rerun removes it, so it must not raise the exit code.
    let alien = PathBuf::from(&s.store).join("sub").join(".DS_Store");
    fs::write(&alien, b"not an artifact").unwrap();
    for _ in 0..2 {
        let out = rock(&["batch", &s.image, "--store", &s.store, "--resume"]);
        assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
        let text = stdout(&out);
        assert!(summary_line(&text, "incr:").contains("0 corrupt skipped"), "got: {text}");
        assert!(summary_line(&text, "corpus:").contains("(100.0% overall)"), "got: {text}");
    }
    assert!(alien.exists(), "a batch never deletes what it did not write");
}

#[test]
fn resume_restores_checkpointed_stages() {
    let s = Scratch::new("resume");
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume", "--timings"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(summary_line(&text, "corpus:").contains("(0.0% overall)"), "first run is cold: {text}");
    assert!(text.contains("incr 0 preloaded / "), "timings summary: {text}");
    let out = rock(&["batch", &s.image, "--store", &s.store, "--resume", "--timings"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(
        summary_line(&text, "corpus:").contains("(100.0% overall)"),
        "the second run is answered by every tier: {text}"
    );
    assert!(summary_line(&text, "incr:").contains(" 0 flushed"), "nothing new to persist: {text}");
    assert!(!text.contains("incr 0 preloaded"), "the second run preloads: {text}");
}

#[test]
fn report_file_collects_the_whole_batch() {
    let s = Scratch::new("report");
    let report = s.dir.join("report.json").to_str().unwrap().to_string();
    let out = rock(&["batch", &s.image, "--store", &s.store, "--report", &report]);
    assert_eq!(code(&out), 0);
    let body = fs::read_to_string(&report).unwrap();
    assert!(body.starts_with("{\"jobs\":["), "got: {body}");
    assert!(body.contains("\"exit_code\":0"));
    assert!(body.contains("\"elapsed_ms\":"));
}

#[test]
fn incremental_counts_reach_the_batch_summary_and_job_timings_hold_only_wall_clock() {
    let s = Scratch::new("incr");
    let run = || {
        let out =
            rock(&["batch", &s.image, "--store", &s.store, "--incremental", "--timings=json"]);
        assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
        stdout(&out)
            .lines()
            .filter(|line| line.starts_with('{'))
            .map(|line| parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}")))
            .collect::<Vec<Json>>()
    };
    // The cold run flushes what it computed; the warm rerun preloads it.
    for (pass, key) in [("cold", "incr_flushed"), ("warm", "incr_preloaded")] {
        let docs = run();
        let summary = docs.iter().find_map(|d| d.get("batch")).expect("batch summary");
        let count = summary.get(key).and_then(Json::as_num).unwrap_or(0.0);
        assert!(count > 0.0, "{pass}: {key} must count the sub-artifacts: {summary:?}");
        let timings: Vec<&Json> = docs.iter().filter_map(|d| d.get("timings")).collect();
        assert_eq!(timings.len(), 1, "{pass}: one timings object per job");
        for t in timings {
            let keys: Vec<&str> = t.as_obj().expect("object").keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                [
                    "analysis_us",
                    "distances_us",
                    "lifting_us",
                    "repartition_us",
                    "structural_us",
                    "threads",
                    "total_us",
                    "training_us"
                ],
                "{pass}: per-job timings carry wall clock only"
            );
        }
    }
}

#[test]
fn scrub_json_escapes_control_characters_in_entry_names() {
    let s = Scratch::new("scrub-json");
    let store = PathBuf::from(&s.store);
    fs::create_dir_all(store.join("sub")).unwrap();
    fs::write(store.join("odd\ttab"), b"stray").unwrap();
    fs::write(store.join("sub").join("bad\nname"), b"stray").unwrap();
    let out = rock(&["store", "scrub", "--store", &s.store, "--dry-run", "--json"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    let doc = text.trim_end_matches('\n');
    // JSON forbids raw control characters inside strings.
    assert!(!doc.bytes().any(|b| b < 0x20), "raw control character in {doc:?}");
    let report = parse_json(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    let details: Vec<&str> = report
        .get("details")
        .and_then(Json::as_arr)
        .expect("details array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(details.contains(&"unknown entry: odd\ttab"), "{details:?}");
    assert!(details.contains(&"sub: unknown entry bad\nname"), "{details:?}");
}

#[test]
fn timings_json_escapes_the_job_name() {
    let s = Scratch::new("timings-json");
    let image = s.dir.join("we\"ird.rkb");
    fs::copy(&s.image, &image).unwrap();
    let out = rock(&["batch", image.to_str().unwrap(), "--store", &s.store, "--timings=json"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().filter(|l| l.contains("\"timings\"")).collect();
    assert_eq!(lines.len(), 1, "one timings line per job: {text}");
    for line in lines {
        let doc = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(doc.get("job").and_then(Json::as_str), Some("we\"ird"), "{line}");
    }
}

//! In-tree guard for the rockbench benchmark: a `--smoke` run of every
//! workload must print exactly the metrics `BENCHMARK.json` names, each
//! with its unit, and fail nothing; a forced oracle mismatch must make
//! the run exit non-zero. The binary is the `rockbench` bin target of
//! `rock-bench`, the same build `BENCHMARK.json`'s command runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rock_trace::{parse_json, Json};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn benchmark_json() -> Json {
    let path = workspace_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("BENCHMARK.json: no {key} array"))
}

fn text<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string {key}"))
}

/// (name, unit) of every metric in one BENCHMARK.json section.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = array(doc, section)
        .iter()
        .map(|m| (text(m, "name").into(), text(m, "unit").into()))
        .collect();
    metrics.sort();
    metrics
}

/// Runs the benchmark from the workspace root, so its record lands
/// under `target/rockbench/smoke/`.
fn rockbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rockbench"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("run rockbench")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("rockbench printed nothing");
    parse_json(last)
        .unwrap_or_else(|e| panic!("last line is not the result object ({e:?}): {last}"))
}

/// One test, so the runs go one after another: a run that shares the
/// cores with another measures that one as well.
#[test]
fn smoke_runs_print_the_declared_metrics_and_a_wrong_output_fails_the_run() {
    let doc = benchmark_json();
    let workloads: Vec<String> =
        array(&doc, "workloads").iter().map(|w| text(w, "name").into()).collect();
    // Untraced on every workload, traced on serve_patch, whose traced
    // run exercises every layer the benchmark accounts for.
    let mut runs: Vec<(String, &str)> = workloads.iter().map(|w| (w.clone(), "0")).collect();
    runs.push(("serve_patch".into(), "1"));
    for (workload, trace) in runs {
        let out = rockbench(&["--workload", &workload, "--seed", "1", "--trace", trace, "--smoke"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}: {stdout}");
        assert_eq!(
            result.get("failed").and_then(Json::as_num),
            Some(0.0),
            "{workload}: failed_frac > 0"
        );
        assert!(result.get("attempted").and_then(Json::as_num).is_some_and(|n| n >= 1.0));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics: {stdout}")
        };
        let mut printed: Vec<(String, String)> =
            metrics.iter().map(|(name, m)| (name.clone(), text(m, "unit").into())).collect();
        printed.sort();
        let section = if trace == "1" { "per_layer" } else { "end_to_end" };
        assert_eq!(
            printed,
            declared(&doc, section),
            "{workload}: metric set differs from BENCHMARK.json"
        );
        for (name, unit) in &printed {
            assert!(
                stdout.lines().any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
                "{workload}: {name} not printed with unit {unit}"
            );
        }
    }

    let out =
        rockbench(&["--workload", "paper_suite", "--seed", "1", "--smoke", "--force-mismatch"]);
    assert!(!out.status.success(), "a wrong output must make the run exit non-zero");
    let result = result_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_num).is_some_and(|n| n >= 1.0));
}

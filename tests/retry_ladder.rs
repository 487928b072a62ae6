//! The retry ladder: deterministic backoff arithmetic (no wall clock),
//! the recorded degradation order full → reduced×N → structural-only,
//! and the graceful floor — a job that exhausts every rung still emits
//! a structural-only hierarchy plus the diagnostics explaining why.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use rock::binary::image_to_bytes;
use rock::budget::RetryPolicy;
use rock::core::{suite, FaultPlan, Parallelism, RockConfig};
use rock::supervisor::{
    exit, ArtifactStore, JobOutcome, JobOutput, Rung, Supervisor, SupervisorOptions,
};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rock-retry-ladder-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn store(&self) -> ArtifactStore {
        ArtifactStore::open(&self.0).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn image_bytes() -> Vec<u8> {
    let bench = suite::stress_program(2, 2, 2);
    let compiled = bench.compile().expect("compiles");
    image_to_bytes(&compiled.stripped_image())
}

fn supervisor(retry: RetryPolicy, scratch: &Scratch) -> Supervisor {
    let options = SupervisorOptions { retry, ..SupervisorOptions::default() };
    Supervisor::new(
        RockConfig::paper().with_parallelism(Parallelism::Serial),
        scratch.store(),
        options,
    )
}

#[test]
fn the_backoff_schedule_is_pure_arithmetic() {
    // min(base * 2^n, cap), computed — never slept — in tests.
    let policy = RetryPolicy::new(5).with_backoff(100, 1000);
    assert_eq!(policy.schedule(), vec![100, 200, 400, 800, 1000]);
    assert_eq!(RetryPolicy::none().schedule(), Vec::<u64>::new());
    // Saturation, not overflow, far down the curve.
    let deep = RetryPolicy::new(80).with_backoff(u64::MAX / 2, u64::MAX);
    assert_eq!(deep.backoff_ms(79), u64::MAX);
}

#[test]
fn a_panicked_attempt_reports_its_panic_message() {
    let scratch = Scratch::new("message");
    let sup = supervisor(RetryPolicy::new(1), &scratch)
        .with_fault_plan(Arc::new(FaultPlan::new().fail_attempts(1)));
    let result = sup.run_job("job", &image_bytes());
    assert_eq!(result.report.attempts[0].result, "panicked: injected attempt fault");
}

#[test]
fn recorded_backoffs_match_the_schedule_without_sleeping() {
    // Every attempt panics; sleep_backoff stays off, so the full ladder
    // runs in far less wall time than the 300 ms it *records*.
    let scratch = Scratch::new("schedule");
    let policy = RetryPolicy::new(2).with_backoff(100, 10_000);
    let sup = supervisor(policy, &scratch)
        .with_fault_plan(Arc::new(FaultPlan::new().fail_attempts(u32::MAX)));
    let started = std::time::Instant::now();
    let result = sup.run_job("job", &image_bytes());
    assert!(started.elapsed().as_millis() < 60_000, "backoff must not be slept");
    let backoffs: Vec<u64> = result.report.attempts.iter().map(|a| a.backoff_ms).collect();
    // First try is free; retries follow the schedule; the structural
    // fallback never waits.
    assert_eq!(backoffs, vec![0, 100, 200, 0]);
}

#[test]
fn the_degradation_order_is_full_then_reduced_then_structural() {
    let scratch = Scratch::new("order");
    let sup = supervisor(RetryPolicy::new(2), &scratch)
        .with_fault_plan(Arc::new(FaultPlan::new().fail_attempts(u32::MAX)));
    let result = sup.run_job("job", &image_bytes());
    let rungs: Vec<Rung> = result.report.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(rungs, vec![Rung::Full, Rung::Reduced, Rung::Reduced, Rung::StructuralOnly]);
    for a in &result.report.attempts[..3] {
        assert!(a.result.starts_with("panicked"), "got: {}", a.result);
    }
    assert_eq!(result.report.attempts[3].result, "ok");
    assert_eq!(result.report.outcome, JobOutcome::Degraded(Rung::StructuralOnly));
    assert_eq!(result.report.exit_code(), exit::DEGRADED);
}

#[test]
fn an_exhausted_ladder_still_emits_a_structural_hierarchy_with_diagnostics() {
    let scratch = Scratch::new("floor");
    let sup = supervisor(RetryPolicy::new(1), &scratch)
        .with_fault_plan(Arc::new(FaultPlan::new().fail_attempts(u32::MAX)));
    let result = sup.run_job("job", &image_bytes());
    match result.output {
        JobOutput::StructuralOnly { hierarchy, issues, .. } => {
            assert!(!hierarchy.is_empty(), "the floor is a real hierarchy");
            assert!(hierarchy.is_acyclic());
            // Every failed attempt left a diagnostic explaining itself.
            let explained = issues.iter().filter(|i| i.contains("attempt on rung")).count();
            assert_eq!(explained, 2, "got: {issues:?}");
            assert_eq!(result.report.errors, issues.len());
        }
        other => panic!("expected the structural-only floor, got {other:?}"),
    }
}

#[test]
fn one_failure_recovers_on_the_reduced_rung() {
    let scratch = Scratch::new("recover");
    let sup = supervisor(RetryPolicy::new(3), &scratch)
        .with_fault_plan(Arc::new(FaultPlan::new().fail_attempts(1)));
    let result = sup.run_job("job", &image_bytes());
    let rungs: Vec<Rung> = result.report.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(rungs, vec![Rung::Full, Rung::Reduced]);
    assert_eq!(result.report.outcome, JobOutcome::Degraded(Rung::Reduced));
    assert!(matches!(result.output, JobOutput::Full(_)), "a reduced run is still behavioral");
}

#[test]
fn strict_failures_bypass_the_ladder_entirely() {
    // A strict-mode stage error is deterministic: retrying or degrading
    // would betray the mode, so the job fails on the first attempt with
    // no structural fallback.
    let bytes = image_bytes();
    let image = rock::binary::image_from_bytes(&bytes).unwrap();
    let loaded = rock::loader::LoadedBinary::load(image).unwrap();
    let victim = loaded.functions()[0].entry();

    let scratch = Scratch::new("strict");
    let options = SupervisorOptions { retry: RetryPolicy::new(3), ..SupervisorOptions::default() };
    let sup = Supervisor::new(
        RockConfig::paper().with_parallelism(Parallelism::Serial).with_strict(),
        scratch.store(),
        options,
    )
    .with_fault_plan(Arc::new(FaultPlan::new().panic_on(victim)));
    let result = sup.run_job("job", &bytes);
    assert!(matches!(result.report.outcome, JobOutcome::Failed(_)), "{:?}", result.report.outcome);
    assert_eq!(result.report.exit_code(), exit::FAILED);
    assert_eq!(result.report.attempts.len(), 1, "no retries after a strict failure");
    assert!(matches!(result.output, JobOutput::None), "no fallback either");
}

#[test]
fn a_blown_deadline_skips_to_the_floor() {
    let scratch = Scratch::new("deadline");
    let options = SupervisorOptions {
        retry: RetryPolicy::new(3),
        deadline_ms: Some(0),
        ..SupervisorOptions::default()
    };
    let sup = Supervisor::new(
        RockConfig::paper().with_parallelism(Parallelism::Serial),
        scratch.store(),
        options,
    );
    let result = sup.run_job("job", &image_bytes());
    assert_eq!(result.report.outcome, JobOutcome::DeadlineBlown);
    assert_eq!(result.report.exit_code(), exit::DEADLINE);
    // The floor has no deadline: a hierarchy still comes out.
    match result.output {
        JobOutput::StructuralOnly { hierarchy, .. } => assert!(!hierarchy.is_empty()),
        other => panic!("expected the structural-only floor, got {other:?}"),
    }
}

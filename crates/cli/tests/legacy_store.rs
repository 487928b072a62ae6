//! Stores written in layouts this version no longer writes, driven
//! through the real binary.
//!
//! Before per-stage checkpoints were retired a store held one
//! `<key:016x>/` directory per job with `<stage>.art` files framed as
//! `ROCKART\x02`, and a `.analysis.art.tmp` a crash left behind. Nothing
//! reads that format any more, so:
//!
//! * opening it (any `rock batch`) leaves every legacy file in place;
//! * `rock store scrub --dry-run` counts each job directory as one
//!   unknown entry and moves nothing;
//! * `rock store scrub` quarantines the directories whole — moved,
//!   never deleted — and converges to clean;
//! * a `--resume` batch over the store then runs cold, with the same
//!   job reports as a batch over a fresh store.
//!
//! Before segment files a store held every entry twice: one loose
//! `sub/<tier>/<key:032x>.sub` file per entry and every frame again in
//! `sub/snapshot.pack`, which has a segment file's encoding. So:
//!
//! * a `--resume` batch preloads every entry from `snapshot.pack`, is
//!   answered by every tier, and leaves the tier directories alone;
//! * `rock store scrub` keeps `snapshot.pack` and quarantines the four
//!   tier directories whole, as unknown entries, and converges;
//! * the next `--resume` batch is still answered by every tier.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rock_supervisor::incr::encode_sub;
use rock_supervisor::{decode_snapshot, encode_snapshot};

fn rock(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rock")).args(args).output().expect("spawn rock")
}

fn ok_stdout(out: Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "stdout: {text}");
    text
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const JOB_DIRS: [&str; 2] = ["2ae61d7518023066", "0f3a9c21be8d4477"];

/// Writes the legacy layout under `store`.
fn write_legacy_store(store: &Path) {
    for key in JOB_DIRS {
        let dir = store.join(key);
        fs::create_dir_all(&dir).unwrap();
        for stage in ["analysis", "training", "distances", "lifting"] {
            let mut frame = b"ROCKART\x02".to_vec();
            frame.extend_from_slice(stage.as_bytes());
            fs::write(dir.join(format!("{stage}.art")), frame).unwrap();
        }
    }
    fs::write(store.join(JOB_DIRS[0]).join(".analysis.art.tmp"), b"half a commit").unwrap();
}

/// Every file under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push(path.strip_prefix(root).unwrap().display().to_string());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// The job-report lines of a batch, without their wall clock.
fn job_reports(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with("{\"name\""))
        .map(|l| l.split(",\"elapsed_ms\"").next().unwrap().to_string())
        .collect()
}

#[test]
fn legacy_job_dirs_are_left_alone_then_quarantined_whole_and_resume_runs_cold() {
    let root = std::env::temp_dir().join(format!("rock-legacy-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let scratch = Scratch(root.clone());
    let image = scratch.0.join("streams.rkb");
    let image = image.to_str().unwrap();
    ok_stdout(rock(&["gen", "streams", image]));
    let store = root.join("store");
    write_legacy_store(&store);
    let legacy = files_under(&store);
    assert_eq!(legacy.len(), 9, "{legacy:?}");
    let store_arg = store.to_str().unwrap();

    // Opening the store (a batch without persistence) touches nothing.
    ok_stdout(rock(&["batch", image, "--store", store_arg]));
    assert_eq!(files_under(&store), legacy, "open must leave the legacy store untouched");

    let dry = ok_stdout(rock(&["store", "scrub", "--store", store_arg, "--dry-run"]));
    assert!(
        dry.contains("0 artifacts ok, 0 corrupt quarantined, 0 tmp swept, 2 unknown quarantined, 0 io errors"),
        "{dry}"
    );
    assert_eq!(files_under(&store), legacy, "a dry run moves nothing");

    let real = ok_stdout(rock(&["store", "scrub", "--store", store_arg]));
    assert!(real.contains("2 unknown quarantined, 0 io errors"), "{real}");
    let quarantine = store.join(".quarantine");
    assert_eq!(
        files_under(&quarantine),
        legacy,
        "the job directories are moved whole, never deleted"
    );
    let again = ok_stdout(rock(&["store", "scrub", "--store", store_arg]));
    assert!(again.contains("clean"), "{again}");

    // A resume over the scrubbed store runs cold and equals a fresh one.
    let resumed = ok_stdout(rock(&["batch", image, "--store", store_arg, "--resume"]));
    assert!(resumed.contains("incr: 0 preloaded"), "{resumed}");
    assert!(resumed.contains("(0.0% overall)"), "{resumed}");
    let fresh = root.join("fresh");
    let fresh = ok_stdout(rock(&["batch", image, "--store", fresh.to_str().unwrap(), "--resume"]));
    assert_eq!(job_reports(&resumed), job_reports(&fresh));
    assert_eq!(job_reports(&resumed).len(), 1);
}

#[test]
fn a_loose_file_store_preloads_from_its_pack_and_scrub_quarantines_the_tiers_whole() {
    let root = std::env::temp_dir().join(format!("rock-loose-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let scratch = Scratch(root.clone());
    let image = scratch.0.join("streams.rkb");
    let image = image.to_str().unwrap();
    ok_stdout(rock(&["gen", "streams", image]));

    // A real batch's entries, laid out the way stores were before
    // segment files: a loose file per entry and all of them in the pack.
    let fresh = root.join("fresh");
    ok_stdout(rock(&["batch", image, "--store", fresh.to_str().unwrap(), "--resume"]));
    let mut entries = Vec::new();
    for segment in fs::read_dir(fresh.join("sub")).unwrap() {
        let bytes = fs::read(segment.unwrap().path()).unwrap();
        entries.extend(decode_snapshot(&bytes).expect("an intact segment"));
    }
    let store = root.join("store");
    let sub = store.join("sub");
    let mut frames = Vec::new();
    for (tier, key, payload) in &entries {
        let frame = encode_sub(*tier, *key, payload);
        fs::create_dir_all(sub.join(tier.name())).unwrap();
        fs::write(sub.join(tier.name()).join(format!("{key:032x}.sub")), &frame).unwrap();
        frames.push(frame);
    }
    fs::write(sub.join("snapshot.pack"), encode_snapshot(&frames)).unwrap();
    let tiers: Vec<String> =
        ["exec", "model", "distance", "lifting"].iter().map(|t| format!("sub/{t}")).collect();
    let loose: Vec<String> =
        files_under(&store).into_iter().filter(|f| f != "sub/snapshot.pack").collect();
    assert_eq!(loose.len(), entries.len());
    assert!(loose.iter().all(|f| tiers.iter().any(|t| f.starts_with(t.as_str()))), "{loose:?}");
    let store_arg = store.to_str().unwrap();
    let all_hit = |text: &str| {
        assert!(text.contains(&format!("incr: {} preloaded, 0 flushed", entries.len())), "{text}");
        assert!(text.contains("(100.0% overall)"), "every tier answers: {text}");
    };

    let warm = ok_stdout(rock(&["batch", image, "--store", store_arg, "--resume"]));
    all_hit(&warm);
    assert_eq!(
        files_under(&store).into_iter().filter(|f| f != "sub/snapshot.pack").collect::<Vec<_>>(),
        loose,
        "the batch leaves the tier directories alone and writes nothing"
    );

    let real = ok_stdout(rock(&["store", "scrub", "--store", store_arg]));
    assert!(
        real.contains(&format!(
            "{} artifacts ok, 0 corrupt quarantined, 0 tmp swept, 4 unknown quarantined, 0 io errors",
            entries.len()
        )),
        "{real}"
    );
    let quarantined: Vec<String> =
        files_under(&store.join(".quarantine")).iter().map(|f| format!("sub/{f}")).collect();
    let moved: Vec<String> =
        loose.iter().map(|f| f.replacen("sub/", "sub/sub.", 1)).collect::<Vec<_>>();
    assert_eq!(quarantined, moved, "each tier directory moved whole, never deleted");
    assert_eq!(files_under(&store.join("sub")), ["snapshot.pack"]);
    let again = ok_stdout(rock(&["store", "scrub", "--store", store_arg]));
    assert!(again.contains("clean"), "{again}");

    all_hit(&ok_stdout(rock(&["batch", image, "--store", store_arg, "--resume"])));
}

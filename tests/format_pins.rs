//! Every persisted and sent byte format, pinned to recorded digests.
//!
//! Stores written by one build are read back by the next: a `.rkb`
//! image, the corpus entries and their keys under `sub/`, the sub
//! frames, the snapshot pack, and the job and config fingerprints all
//! outlive the process that wrote them, and `rock serve` frames cross
//! the wire between builds. The round-trip tests elsewhere encode and
//! decode with the same code, so a drift that moves both sides at once
//! (a key field written big-endian, a changed mixer constant) passes
//! them all. This suite recomputes each format over the 19 suite
//! images, six corpus members and one stress program, under four
//! configurations, and compares a digest of every (image, format) pair
//! with the value recorded when the format was last deliberately
//! changed. A failure names each image and format that moved.
//!
//! The digest below is written here, independent of every hash under
//! test. When a format changes on purpose (with its version byte
//! bumped), the failure message prints the whole new table to paste
//! over the old one.

use std::sync::Arc;

use rock::binary::{image_from_bytes, image_to_bytes, BinaryImage};
use rock::core::{suite, CorpusCache, Parallelism, Rock, RockConfig, SubTier};
use rock::loader::LoadedBinary;
use rock::serve::result_fp;
use rock::slm::Metric;
use rock::supervisor::incr::{decode_sub, encode_sub};
use rock::supervisor::wire::{JobState, RejectReason, Request, Response, SERVE_PROTOCOL_VERSION};
use rock::supervisor::{
    config_fingerprint, content_key, decode_snapshot, encode_snapshot, ArtifactStore, JobOutput,
    Supervisor, SupervisorOptions,
};
use rock::trace::{fnv1a, names, span_sampled};

/// A 64-bit digest of `bytes` (length-seeded multiply-rotate over
/// little-endian words). Each step is a bijection of the state for a
/// fixed word, so any single changed word changes the digest.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x9fb2_1c65_1e98_df25).rotate_left(31);
    }
    h ^ (h >> 32)
}

/// Accumulates the byte streams of one (image, format) pair.
#[derive(Default)]
struct Stream(Vec<u8>);

impl Stream {
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.0.extend_from_slice(b);
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn digest(&self) -> u64 {
        digest(&self.0)
    }
}

/// Compares `got` with `pins` and fails naming every line that moved,
/// appeared or disappeared, then prints the whole recomputed table.
fn check(table: &str, got: &[(String, u64)], pins: &[(&str, u64)]) {
    let mut report = Vec::new();
    for (name, value) in got {
        match pins.iter().find(|(pin, _)| pin == name) {
            Some(&(_, pinned)) if pinned == *value => {}
            Some(&(_, pinned)) => {
                report.push(format!("moved: {name}: pinned {pinned:#018x}, now {value:#018x}"))
            }
            None => report.push(format!("unpinned: {name}: {value:#018x}")),
        }
    }
    for (pin, _) in pins {
        if !got.iter().any(|(name, _)| name == pin) {
            report.push(format!("no longer computed: {pin}"));
        }
    }
    if report.is_empty() {
        return;
    }
    let mut table_src = format!("const {table}: &[(&str, u64)] = &[\n");
    for (name, value) in got {
        table_src.push_str(&format!("    ({name:?}, {value:#018x}),\n"));
    }
    table_src.push_str("];\n");
    panic!("{} format pin(s) differ:\n{}\n\n{table_src}", report.len(), report.join("\n"));
}

/// The images every per-image format is pinned over: the 19 suite
/// programs, six corpus members and one stress program, stripped.
fn images() -> Vec<(String, BinaryImage)> {
    let mut benches: Vec<(String, suite::Benchmark)> =
        suite::all_benchmarks().into_iter().map(|b| (b.name.to_string(), b)).collect();
    for i in 0..6 {
        benches.push((format!("corpus_member({i},40)"), suite::corpus_member(i, 40)));
    }
    benches.push(("stress_program(2,3,2)".to_string(), suite::stress_program(2, 3, 2)));
    benches
        .into_iter()
        .map(|(name, b)| (name, b.compile().expect("suite programs compile").stripped_image()))
        .collect()
}

/// The four pinned configurations, all serial.
fn configs() -> [(&'static str, RockConfig); 4] {
    let serial = |c: RockConfig| c.with_parallelism(Parallelism::Serial);
    [
        ("paper", serial(RockConfig::paper())),
        ("canonical", serial(RockConfig::paper().with_canonical_calls())),
        (
            "canonical+repartition",
            serial(RockConfig::paper().with_canonical_calls().with_repartitioning()),
        ),
        (
            "js+canonical",
            serial(RockConfig::with_metric(Metric::JsDivergence).with_canonical_calls()),
        ),
    ]
}

#[test]
fn image_and_corpus_formats_match_the_pins() {
    let mut got = Vec::new();
    for (name, image) in images() {
        let bytes = image_to_bytes(&image);
        assert_eq!(image_from_bytes(&bytes).as_ref(), Ok(&image), "{name}: .rkb round trip");
        got.push((format!("{name}/rkb"), digest(&bytes)));
        let loaded = LoadedBinary::load(image).expect("suite images load");

        let mut entries = Stream::default();
        let mut frames = Stream::default();
        let mut packs = Stream::default();
        let mut content_keys = Stream::default();
        let mut result_fps = Stream::default();
        for (config_name, config) in configs() {
            let corpus = Arc::new(CorpusCache::new());
            let recon =
                Rock::new(config).with_corpus_cache(Arc::clone(&corpus)).reconstruct(&loaded);
            let (claimed, unchanged) = corpus.claim_unpersisted();
            assert_eq!(
                unchanged, 0,
                "{name} {config_name}: a fresh corpus holds nothing persisted"
            );
            entries.text(config_name);
            frames.text(config_name);
            let mut sub_frames = Vec::with_capacity(claimed.len());
            for (tier, key, payload) in &claimed {
                entries.u64(u64::from(tier.tag()));
                entries.u128(*key);
                entries.bytes(payload);
                let frame = encode_sub(*tier, *key, payload);
                assert_eq!(
                    decode_sub(&frame).as_ref(),
                    Ok(&(*tier, *key, payload.clone())),
                    "{name} {config_name}: sub frame round trip"
                );
                frames.bytes(&frame);
                sub_frames.push(frame);
            }
            // Every claimed payload decodes and re-encodes to itself.
            let warm = CorpusCache::new();
            for (tier, key, payload) in &claimed {
                assert!(warm.import_entry(*tier, *key, payload), "{name} {config_name}: import");
            }
            assert_eq!(warm.export_entries(), claimed, "{name} {config_name}: import/export");
            packs.text(config_name);
            packs.bytes(&encode_snapshot(&sub_frames));
            content_keys.u64(content_key(&bytes, &config));
            result_fps.u64(result_fp(&JobOutput::Full(Box::new(recon))));
        }
        got.push((format!("{name}/corpus_entries"), entries.digest()));
        got.push((format!("{name}/sub_frames"), frames.digest()));
        got.push((format!("{name}/snapshot_pack"), packs.digest()));
        got.push((format!("{name}/content_key"), content_keys.digest()));
        got.push((format!("{name}/result_fp"), result_fps.digest()));
    }
    for (config_name, config) in configs() {
        got.push((
            format!("config_fingerprint/{config_name}"),
            digest(&config_fingerprint(&config)),
        ));
    }
    check("IMAGE_PINS", &got, IMAGE_PINS);
}

#[test]
fn decode_errors_match_the_pins() {
    let mut got = Vec::new();
    // The smallest suite image: every prefix must fail, with the same
    // error as before.
    let image = suite::all_benchmarks()
        .into_iter()
        .map(|b| image_to_bytes(&b.compile().expect("compiles").stripped_image()))
        .min_by_key(Vec::len)
        .expect("a suite");
    let mut errors = Stream::default();
    for cut in 0..image.len() {
        let err = image_from_bytes(&image[..cut]).expect_err("a strict prefix never parses");
        errors.text(&format!("{err:?} {err}"));
    }
    let mut trailing = image.clone();
    trailing.push(0);
    errors.text(&format!("{:?}", image_from_bytes(&trailing)));
    got.push(("rkb/prefix_errors".to_string(), errors.digest()));

    // One sub frame per tier and the pack holding them: every prefix,
    // and a flipped byte at every offset of the frames.
    let loaded = LoadedBinary::load(image_from_bytes(&image).expect("parses")).expect("loads");
    let corpus = Arc::new(CorpusCache::new());
    Rock::new(configs()[1].1).with_corpus_cache(Arc::clone(&corpus)).reconstruct(&loaded);
    let (claimed, _) = corpus.claim_unpersisted();
    let frames: Vec<Vec<u8>> = SubTier::ALL
        .iter()
        .filter_map(|tier| claimed.iter().find(|(t, ..)| t == tier))
        .map(|(tier, key, payload)| encode_sub(*tier, *key, payload))
        .collect();
    assert_eq!(frames.len(), 4, "the smallest image fills every tier");
    let mut errors = Stream::default();
    for frame in &frames {
        for cut in 0..frame.len() {
            errors.text(&format!("{:?}", decode_sub(&frame[..cut])));
        }
        for at in 0..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 0x40;
            errors.text(&format!("{:?}", decode_sub(&bad).map(|(t, k, _)| (t, k))));
        }
    }
    got.push(("sub/decode_errors".to_string(), errors.digest()));
    let pack = encode_snapshot(&frames);
    let mut errors = Stream::default();
    for cut in 0..pack.len() {
        errors.text(&format!("{:?}", decode_snapshot(&pack[..cut]).map(|e| e.len())));
    }
    got.push(("pack/prefix_errors".to_string(), errors.digest()));

    // Damage behind a valid checksum: a wrong format version, an
    // unknown tier tag and lying payload lengths in each frame, and a
    // pack whose segment holds such a frame.
    let mut errors = Stream::default();
    for frame in &frames {
        let payload_len = (frame.len() - 41) as u64;
        let mut damaged = Vec::new();
        for (at, byte) in [(7, 0x02), (8, 9)] {
            let mut bad = frame.clone();
            bad[at] = byte;
            damaged.push(bad);
        }
        for lie in [payload_len + 1, payload_len - 1, 0, u64::MAX] {
            let mut bad = frame.clone();
            bad[25..33].copy_from_slice(&lie.to_le_bytes());
            damaged.push(bad);
        }
        for bad in damaged.into_iter().map(rechecksum) {
            errors.text(&format!("{:?}", decode_sub(&bad).map(|(t, k, _)| (t, k))));
            let pack = encode_snapshot(&[frames[0].clone(), bad]);
            errors.text(&format!("{:?}", decode_snapshot(&pack).map(|e| e.len())));
        }
    }
    got.push(("sub/checksummed_damage_errors".to_string(), errors.digest()));
    check("DECODE_PINS", &got, DECODE_PINS);
}

/// `frame` with its trailing FNV-1a checksum recomputed over the rest.
fn rechecksum(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.len() - 8;
    let checksum = fnv1a(&frame[..body]);
    frame[body..].copy_from_slice(&checksum.to_le_bytes());
    frame
}

/// One of every serve frame shape, named.
fn serve_frames() -> Vec<(String, Vec<u8>)> {
    let done = JobState::Done {
        exit_code: 2,
        outcome: "degraded".into(),
        result_fp: 0xDEAD_BEEF_CAFE_F00D,
        report_json: "{\"job\":\"x\"}".into(),
    };
    let mut frames = vec![
        (
            "hello",
            Request::Hello { version: SERVE_PROTOCOL_VERSION, client: "tenant".into() }.encode(),
        ),
        (
            "submit",
            Request::Submit { name: "job".into(), deadline_ms: 250, image: vec![1, 2, 3, 0xFF] }
                .encode(),
        ),
        ("status", Request::Status { job: 42 }.encode()),
        ("cancel", Request::Cancel { job: u64::MAX }.encode()),
        ("drain", Request::Drain.encode()),
        ("hello_ok", Response::HelloOk { version: SERVE_PROTOCOL_VERSION }.encode()),
        ("accepted", Response::Accepted { job: 7 }.encode()),
        ("job_status_unknown", Response::JobStatus { job: 1, state: JobState::Unknown }.encode()),
        (
            "job_status_queued",
            Response::JobStatus { job: 2, state: JobState::Queued { position: 3 } }.encode(),
        ),
        ("job_status_running", Response::JobStatus { job: 3, state: JobState::Running }.encode()),
        ("job_status_done", Response::JobStatus { job: 4, state: done }.encode()),
        (
            "job_status_cancelled",
            Response::JobStatus { job: 5, state: JobState::Cancelled }.encode(),
        ),
        ("drain_started", Response::DrainStarted { queued: 9, running: 4 }.encode()),
        ("protocol_error", Response::ProtocolError { message: "bad tag".into() }.encode()),
    ];
    for reason in RejectReason::ALL {
        let frame = Response::Rejected { reason, detail: format!("shed: {reason}") }.encode();
        frames.push((reason.name(), frame));
    }
    frames.into_iter().map(|(name, frame)| (name.to_string(), frame)).collect()
}

#[test]
fn serve_frames_match_the_pins() {
    let mut got = Vec::new();
    for (name, frame) in serve_frames() {
        got.push((format!("serve/{name}"), digest(&frame)));
    }
    // The decoder's error text for every prefix of a Submit and of a
    // Done status, and for a trailing byte and an unknown tag.
    let mut errors = Stream::default();
    for (name, frame) in serve_frames() {
        if name == "submit" {
            for cut in 0..frame.len() {
                errors.text(&Request::decode(&frame[..cut]).expect_err("prefix").to_string());
            }
            let mut long = frame.clone();
            long.push(0);
            errors.text(&Request::decode(&long).expect_err("trailing").to_string());
        }
        if name == "job_status_done" {
            for cut in 0..frame.len() {
                errors.text(&Response::decode(&frame[..cut]).expect_err("prefix").to_string());
            }
        }
    }
    errors.text(&Request::decode(&[0]).expect_err("tag 0").to_string());
    errors.text(&Response::decode(&[130, 9]).expect_err("reject reason").to_string());
    got.push(("serve/decode_errors".to_string(), errors.digest()));
    check("SERVE_PINS", &got, SERVE_PINS);
}

#[test]
fn span_sampling_and_supervised_keys_match_the_pins() {
    let mut got = Vec::new();
    for name in [
        names::ANALYSIS_FUNCTION,
        names::TRAINING_TYPE,
        names::DISTANCES_PAIR,
        names::LIFTING_FAMILY,
        names::REPARTITION_ROOT,
    ] {
        let kept: Vec<u8> = (0..4096u64).map(|s| u8::from(span_sampled(name, s))).collect();
        got.push((format!("span_sampled/{name}"), digest(&kept)));
    }

    let bytes =
        image_to_bytes(&suite::streams_example().compile().expect("compiles").stripped_image());
    let dir = std::env::temp_dir().join(format!("rock-format-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("scratch store");
    let sup = Supervisor::new(RockConfig::paper(), store, SupervisorOptions::default());
    let job = sup.run_job("pins", &bytes);
    got.push(("supervised/job_key".to_string(), sup.job_key(&bytes)));
    got.push(("supervised/result_fp".to_string(), result_fp(&job.output)));
    let _ = std::fs::remove_dir_all(&dir);
    check("RUN_PINS", &got, RUN_PINS);
}

const IMAGE_PINS: &[(&str, u64)] = &[
    ("AntispyComplete/rkb", 0x9f14047f056dacd1),
    ("AntispyComplete/corpus_entries", 0x6b2996b6cc238e6c),
    ("AntispyComplete/sub_frames", 0x250b71715239ae40),
    ("AntispyComplete/snapshot_pack", 0xafbb8d47e07ae319),
    ("AntispyComplete/content_key", 0x5bd2791f9a4d3833),
    ("AntispyComplete/result_fp", 0x88ac327be3145092),
    ("bafprp/rkb", 0x65d82121f18a98f4),
    ("bafprp/corpus_entries", 0x16c3b4e810552158),
    ("bafprp/sub_frames", 0x032429769c9ff250),
    ("bafprp/snapshot_pack", 0x79c83a84c2dddb8a),
    ("bafprp/content_key", 0x6f452102a5974db2),
    ("bafprp/result_fp", 0x78f8057e02207ff7),
    ("cppcheck/rkb", 0x047f371bfc8d694c),
    ("cppcheck/corpus_entries", 0xaa8aad66c607bf71),
    ("cppcheck/sub_frames", 0x4a8d0cf860105a14),
    ("cppcheck/snapshot_pack", 0xd031ff4c044c78dc),
    ("cppcheck/content_key", 0x755e9ab126f3c362),
    ("cppcheck/result_fp", 0xf1d87ba391599b33),
    ("MidiLib/rkb", 0x62439f493fc03354),
    ("MidiLib/corpus_entries", 0x960cbffd290c9ac7),
    ("MidiLib/sub_frames", 0xea69825cbd74ef0a),
    ("MidiLib/snapshot_pack", 0xc4060106596aaa2d),
    ("MidiLib/content_key", 0x3483fe7ceaf05a84),
    ("MidiLib/result_fp", 0x507fb13db442d6cd),
    ("patl/rkb", 0x01c501b44f092a2f),
    ("patl/corpus_entries", 0x59fcd418f0b8f448),
    ("patl/sub_frames", 0x52baede67f1a55c1),
    ("patl/snapshot_pack", 0xbd88a0c75488336e),
    ("patl/content_key", 0x5605e0d8200a835d),
    ("patl/result_fp", 0x8728efdff862f25f),
    ("pop3/rkb", 0xdb5a6fa95280f79a),
    ("pop3/corpus_entries", 0x4f77d2e83f451a30),
    ("pop3/sub_frames", 0xfb3d35184b79cba1),
    ("pop3/snapshot_pack", 0x35989c4506b51078),
    ("pop3/content_key", 0x0c26ccf5e34fea61),
    ("pop3/result_fp", 0xc4f65a5d5eb5fb41),
    ("smtp/rkb", 0xdb5a6fa95280f79a),
    ("smtp/corpus_entries", 0x4f77d2e83f451a30),
    ("smtp/sub_frames", 0xfb3d35184b79cba1),
    ("smtp/snapshot_pack", 0x35989c4506b51078),
    ("smtp/content_key", 0x0c26ccf5e34fea61),
    ("smtp/result_fp", 0xc4f65a5d5eb5fb41),
    ("tinyxml/rkb", 0xb0978d77b7edc86d),
    ("tinyxml/corpus_entries", 0xa8736e9f2662b58d),
    ("tinyxml/sub_frames", 0x32abd89c95910259),
    ("tinyxml/snapshot_pack", 0x2772b658e9ce891d),
    ("tinyxml/content_key", 0x121d0f10861ea7c0),
    ("tinyxml/result_fp", 0x4263b72e15226993),
    ("tinyxmlSTL/rkb", 0xff224af81bb43b03),
    ("tinyxmlSTL/corpus_entries", 0x07efb242b7a05831),
    ("tinyxmlSTL/sub_frames", 0xfc51341774dd9b64),
    ("tinyxmlSTL/snapshot_pack", 0x62547b48d72b632e),
    ("tinyxmlSTL/content_key", 0x1fca0125076b2c98),
    ("tinyxmlSTL/result_fp", 0xe39c4d2ab1604674),
    ("yafc/rkb", 0x6d225426fd0ec8d0),
    ("yafc/corpus_entries", 0x8b64b2e33122c60e),
    ("yafc/sub_frames", 0x4265835ddf0f3e0d),
    ("yafc/snapshot_pack", 0x5d8692e59dd4321b),
    ("yafc/content_key", 0xdf64fc725e12e969),
    ("yafc/result_fp", 0x4990942f5aa8c244),
    ("Analyzer/rkb", 0xd84e96de6c780bb0),
    ("Analyzer/corpus_entries", 0xccd82daba685bd48),
    ("Analyzer/sub_frames", 0x671211a431cf58a0),
    ("Analyzer/snapshot_pack", 0x9342f800e127f9a1),
    ("Analyzer/content_key", 0xda7520bf4fe34b13),
    ("Analyzer/result_fp", 0xebbedeb8bbaa1aa9),
    ("CGridListCtrlEx/rkb", 0xf1ae62e4ad369551),
    ("CGridListCtrlEx/corpus_entries", 0xa496856d16071c16),
    ("CGridListCtrlEx/sub_frames", 0xe849dbddaff05fe4),
    ("CGridListCtrlEx/snapshot_pack", 0xaa8dcc60edb6bf88),
    ("CGridListCtrlEx/content_key", 0x03a6c061c4490cc2),
    ("CGridListCtrlEx/result_fp", 0xde771c9f7c14ff1f),
    ("echoparams/rkb", 0x39526245f9a4f2b9),
    ("echoparams/corpus_entries", 0x5bdf17fdb32684b9),
    ("echoparams/sub_frames", 0xf0516b0e5830bf00),
    ("echoparams/snapshot_pack", 0xfb9689fe2f3cfec3),
    ("echoparams/content_key", 0x3cb23bbb283c6ace),
    ("echoparams/result_fp", 0x5845c86ce77f62b7),
    ("gperf/rkb", 0x8398263acfdb6c1d),
    ("gperf/corpus_entries", 0x45c0cba9ae24f12c),
    ("gperf/sub_frames", 0xcaefc73522e0b71e),
    ("gperf/snapshot_pack", 0xc06b8c510bc2ea42),
    ("gperf/content_key", 0xd3e8fa1ea51d3b63),
    ("gperf/result_fp", 0x918531290560827d),
    ("libctemplate/rkb", 0xf30d6f585b306f58),
    ("libctemplate/corpus_entries", 0xfcc661127b9d0943),
    ("libctemplate/sub_frames", 0x989da09d7108615e),
    ("libctemplate/snapshot_pack", 0x44b8a7a23f839b82),
    ("libctemplate/content_key", 0xec75ef559c698f2c),
    ("libctemplate/result_fp", 0xfc9af0e9d832a542),
    ("ShowTraf/rkb", 0x218dd659c9fa7dde),
    ("ShowTraf/corpus_entries", 0xaf1a80c279301a11),
    ("ShowTraf/sub_frames", 0xebdae5fbc3d5ebd6),
    ("ShowTraf/snapshot_pack", 0x334960dec98e6ff4),
    ("ShowTraf/content_key", 0x84dc6148a8963f21),
    ("ShowTraf/result_fp", 0xd0440fa16be99f4e),
    ("Smoothing/rkb", 0x2907f7ceb38c0573),
    ("Smoothing/corpus_entries", 0xb41988ed81d70d47),
    ("Smoothing/sub_frames", 0x583f1fb090e9a2e9),
    ("Smoothing/snapshot_pack", 0x9a4817edaec9ff8b),
    ("Smoothing/content_key", 0x6f2f0a391cae9714),
    ("Smoothing/result_fp", 0x090cd8fa22329ccc),
    ("td_unittest/rkb", 0xa9f652b290af999f),
    ("td_unittest/corpus_entries", 0x41070804d6839e98),
    ("td_unittest/sub_frames", 0x7cb4398d04828844),
    ("td_unittest/snapshot_pack", 0x984429086769a73a),
    ("td_unittest/content_key", 0x7087dc5b034c5afe),
    ("td_unittest/result_fp", 0x482121694b7ed955),
    ("tinyserver/rkb", 0xa307db614e52d45e),
    ("tinyserver/corpus_entries", 0xe8ec1f6c5cdcfd7c),
    ("tinyserver/sub_frames", 0xb3a9a37574809613),
    ("tinyserver/snapshot_pack", 0x4371f851b26510f7),
    ("tinyserver/content_key", 0x2d600378edacfabc),
    ("tinyserver/result_fp", 0xb4d441a81d7e32c1),
    ("corpus_member(0,40)/rkb", 0x792e6329afb2fdac),
    ("corpus_member(0,40)/corpus_entries", 0x443ee6b66bd1dbc0),
    ("corpus_member(0,40)/sub_frames", 0xda8f95fb491d7392),
    ("corpus_member(0,40)/snapshot_pack", 0x5a7b19431dab1732),
    ("corpus_member(0,40)/content_key", 0xd07e996338c1dd57),
    ("corpus_member(0,40)/result_fp", 0xc83f3fe4d9fa3f3e),
    ("corpus_member(1,40)/rkb", 0x62133f7ee46f5975),
    ("corpus_member(1,40)/corpus_entries", 0x2b74905fe235fcac),
    ("corpus_member(1,40)/sub_frames", 0x8fafd4dd783339e6),
    ("corpus_member(1,40)/snapshot_pack", 0xbbae0abd1f0abc9d),
    ("corpus_member(1,40)/content_key", 0x3f138573df3bedbd),
    ("corpus_member(1,40)/result_fp", 0xc734a41dcac62dc6),
    ("corpus_member(2,40)/rkb", 0xfabcefbc4504ffa2),
    ("corpus_member(2,40)/corpus_entries", 0xb01dee74c026af87),
    ("corpus_member(2,40)/sub_frames", 0xa2f7146019eafb8e),
    ("corpus_member(2,40)/snapshot_pack", 0x86c07fbb622a12a0),
    ("corpus_member(2,40)/content_key", 0x138600be70f9951a),
    ("corpus_member(2,40)/result_fp", 0xc83f3fe4d9fa3f3e),
    ("corpus_member(3,40)/rkb", 0x3b2d271311802583),
    ("corpus_member(3,40)/corpus_entries", 0x16cf5dbec6b7c18a),
    ("corpus_member(3,40)/sub_frames", 0x02ee934b095ffa77),
    ("corpus_member(3,40)/snapshot_pack", 0x5f3e54cb32244fb6),
    ("corpus_member(3,40)/content_key", 0x9491e5e59c9106cb),
    ("corpus_member(3,40)/result_fp", 0xc734a41dcac62dc6),
    ("corpus_member(4,40)/rkb", 0x9f0c934b87f849d1),
    ("corpus_member(4,40)/corpus_entries", 0xb2c1e77523139289),
    ("corpus_member(4,40)/sub_frames", 0x4c2ddd091b1f074e),
    ("corpus_member(4,40)/snapshot_pack", 0xb633081645765871),
    ("corpus_member(4,40)/content_key", 0x8da0d5304d0f64f2),
    ("corpus_member(4,40)/result_fp", 0x01e65c5f12ba2439),
    ("corpus_member(5,40)/rkb", 0x1128704d6b30ef53),
    ("corpus_member(5,40)/corpus_entries", 0x617c13c533fd11d4),
    ("corpus_member(5,40)/sub_frames", 0x720d2616e1d70bee),
    ("corpus_member(5,40)/snapshot_pack", 0x5f53fe0f97e1e85e),
    ("corpus_member(5,40)/content_key", 0x71554f91b8abee08),
    ("corpus_member(5,40)/result_fp", 0xc734a41dcac62dc6),
    ("stress_program(2,3,2)/rkb", 0x11ceefce3412627b),
    ("stress_program(2,3,2)/corpus_entries", 0x450a4fe55c4bf752),
    ("stress_program(2,3,2)/sub_frames", 0x51321e9857e85cd4),
    ("stress_program(2,3,2)/snapshot_pack", 0xcbf889bc8c8e740e),
    ("stress_program(2,3,2)/content_key", 0x060de6c1ca2d1ad4),
    ("stress_program(2,3,2)/result_fp", 0x71641d1346357c16),
    ("config_fingerprint/paper", 0xd5e553b7ad9df236),
    ("config_fingerprint/canonical", 0xd5e553b7bdee7236),
    ("config_fingerprint/canonical+repartition", 0x55e553b722b2c2a3),
    ("config_fingerprint/js+canonical", 0xd3db5e222b895b65),
];

const DECODE_PINS: &[(&str, u64)] = &[
    ("rkb/prefix_errors", 0x8e8070af4ecd9c48),
    ("sub/decode_errors", 0x50b4c3b57a1b04c4),
    ("pack/prefix_errors", 0x79d2901bfbca8922),
    ("sub/checksummed_damage_errors", 0x28ac5afca4226353),
];

const SERVE_PINS: &[(&str, u64)] = &[
    ("serve/hello", 0x75eb99cc3844e3fa),
    ("serve/submit", 0x24d761f98024bbc7),
    ("serve/status", 0xf141beee6281affa),
    ("serve/cancel", 0xb63007911c109327),
    ("serve/drain", 0xe375c8091f4e2b6f),
    ("serve/hello_ok", 0x9e968448a7451d04),
    ("serve/accepted", 0xccd79f52959bee9e),
    ("serve/job_status_unknown", 0xae88d38f89aff751),
    ("serve/job_status_queued", 0xf8c09e88bfef92ec),
    ("serve/job_status_running", 0xcb67d83afe8eed6a),
    ("serve/job_status_done", 0xad3d73d59e347015),
    ("serve/job_status_cancelled", 0xb7934c776bb9c7c9),
    ("serve/drain_started", 0xc5eb8eca98a16114),
    ("serve/protocol_error", 0x0843b1931f86c58c),
    ("serve/queue_full", 0x34d41868de657ff7),
    ("serve/quota_exceeded", 0x7161381582e2f909),
    ("serve/draining", 0xfd0da4a49c26370d),
    ("serve/too_large", 0x544ab11cc5ef8a26),
    ("serve/decode_errors", 0x30ab3204259c16d3),
];

const RUN_PINS: &[(&str, u64)] = &[
    ("span_sampled/analysis.function", 0xcbe87d39cc955239),
    ("span_sampled/training.type", 0xbd6e6f69cfb31456),
    ("span_sampled/distances.pair", 0xcf34a7d2cfdd62ca),
    ("span_sampled/lifting.family", 0x1129665a01ea24da),
    ("span_sampled/repartition.root", 0x0af680185cf0aaee),
    ("supervised/job_key", 0x2ae61d7518023066),
    ("supervised/result_fp", 0x53482e793789236a),
];

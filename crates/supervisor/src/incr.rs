//! Fine-grained incremental persistence of corpus sub-artifacts — the
//! one resume format.
//!
//! The corpus cache's *sub-artifacts* are persisted individually, each
//! under its own content-derived key. A supervised job flushes them at
//! every stage boundary, so an interrupted job resumes as a preload plus
//! a rerun whose tier lookups answer every stage that already ran, and a
//! patched image recomputes only what its edit touched:
//!
//! | tier       | one entry per                   | key derived from                     |
//! |------------|---------------------------------|--------------------------------------|
//! | `exec`     | distinct function body          | position-independent WL content label + analysis config salt (without canonical calls also the image and the entry address) |
//! | `model`    | distinct tracelet multiset      | commutative hash of the trained windows + SLM depth |
//! | `distance` | ordered model pair × metric     | both model keys + metric tag         |
//! | `lifting`  | family lifting problem          | member model keys + edge list + tie config |
//!
//! Because every key is content-derived, *dirty-set propagation needs
//! no bookkeeping*: editing one function changes its WL label, which
//! misses the exec tier, which changes the tracelet multisets of
//! exactly the types that observe it, which changes their pool keys,
//! which misses the model tier, which invalidates precisely the
//! distance rows touching a changed model and the lift keys of the
//! families containing a changed type. Everything else re-keys
//! identically and is served from disk. In particular, with canonical
//! calls the exec key is independent of the function's *address*, so
//! byte-identical functions at shifted offsets still hit.
//!
//! On-disk layout, under the artifact store root: one *segment file*
//! per flush, named by the FNV-1a hash of its bytes.
//!
//! ```text
//! <root>/sub/<fnv1a:016x>.pack   the frames one flush claimed
//! ```
//!
//! A segment file is a snapshot pack ([`encode_snapshot`]): a magic,
//! then segments of framed sub-artifacts, each frame framed as
//!
//! ```text
//! magic "ROCKSUB\x01" | tier tag u8 | key lo u64 | key hi u64
//! | payload len u64 | payload | FNV-1a checksum u64 (over everything
//! before it)
//! ```
//!
//! Staleness defenses are layered: each frame's checksum catches torn
//! or bit-rotted bytes frame by frame, so a damaged file costs only the
//! frames that fail it (and those after a broken length field); and
//! [`rock_core::CorpusCache::import_entry`] re-derives each payload's
//! own key from its decoded content (a model must reproduce its pool
//! key, a distance its disk key), so a payload can never be loaded
//! under a key it does not hash to. A rejected frame is counted
//! (`incr.corrupt_skipped`) and simply recomputes — degradation, never
//! stale reuse. `rock store scrub` quarantines a damaged file whole and
//! writes the frames that still verify back as a new segment, so a
//! quarantined entry costs exactly its own recompute.
//!
//! A flush costs what was added since the last one, not what the store
//! holds. Every corpus entry carries a persisted mark (preloaded
//! entries arrive marked); [`flush_subartifacts`] claims the unmarked
//! ones ([`rock_core::CorpusCache::claim_unpersisted`], which visits
//! only keys stored since the last claim) and writes their frames as one
//! segment file through a temp file + atomic rename; a failed write
//! hands every claim back. A flush that claims nothing makes no storage
//! call, and no flush lists a directory or reads anything. Concurrent
//! flushes claim disjoint entries and so write distinct files, which
//! needs no lock: a claimed entry goes to exactly one flush within a
//! process, and a writer that does repeat an entry (a second process,
//! or a corpus that never preloaded the store) repeats the same
//! content-addressed frame, which preload imports once more. In
//! `durable` mode the file is fsynced before its rename and `sub/`
//! after it. All traffic goes through the store's [`crate::vfs::Vfs`]
//! seam, retry policy, and fault accounting, so chaos tests exercise
//! this layer under injected storage faults.
//!
//! The warm ≡ cold invariant holds end to end: preloaded entries only
//! ever short-circuit work whose outputs are bit-identical to
//! recomputation (enforced by `tests/incremental_delta.rs`), and the
//! `incr.*` counters preload and flush return ride in the batch and
//! daemon registries only, never in the pipeline's own registry or
//! diagnostics.

use std::io;

use rock_binary::codec::{Reader, WireError, Writer};
use rock_core::{CorpusCache, SubTier};
use rock_trace::{fnv1a, names, MetricsRegistry};

use crate::artifact::{entry_name, ArtifactStore, OpClass};

/// The 8-byte sub-artifact frame magic; the trailing byte is the format
/// version. Bumps invalidate every existing sub-artifact.
pub const SUB_MAGIC: &[u8; 8] = b"ROCKSUB\x01";

/// The 8-byte magic of a segment file; the trailing byte is the format
/// version. A bump makes every existing segment file unreadable:
/// preload counts each once in `incr.corrupt_skipped`, its entries
/// recompute, and scrub quarantines it. v2: the body is a sequence of
/// self-checksummed segments.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ROCKSPK\x02";

/// The suffix of a segment file directly under `<root>/sub/`. Preload
/// reads every file that carries it, so a store written before segment
/// files (whose `snapshot.pack` has the same encoding) stays warm.
pub(crate) const SEGMENT_SUFFIX: &str = ".pack";

/// `true` for the commit debris of a segment write, `.<name>.pack.tmp`.
pub(crate) fn is_segment_tmp(name: &str) -> bool {
    name.starts_with('.') && name.ends_with(".pack.tmp")
}

/// Frames one sub-artifact payload for disk:
///
/// ```text
/// "ROCKSUB\x01" | tier tag u8 | key u128 | payload len u64 | payload
///                | FNV-1a checksum u64 (over every byte before it)
/// ```
pub fn encode_sub(tier: SubTier, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(SUB_MAGIC);
    w.u8(tier.tag());
    w.u128(key);
    w.blob(payload);
    let mut buf = w.into_bytes();
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Decodes a framed sub-artifact. Checksum, magic, tier tag, and
/// payload length are all verified; the payload itself is *not*
/// validated here (that is the corpus importer's job).
pub fn decode_sub(bytes: &[u8]) -> Result<(SubTier, u128, Vec<u8>), String> {
    if bytes.len() < SUB_MAGIC.len() + 1 + 8 + 8 + 8 + 8 {
        return Err("file shorter than the fixed frame".into());
    }
    let fail = |e: WireError| e.to_string();
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if fnv1a(body) != Reader::new(tail).u64("checksum").map_err(fail)? {
        return Err("checksum mismatch".into());
    }
    let (magic, header) = body.split_at(SUB_MAGIC.len());
    if magic != SUB_MAGIC {
        return Err("bad magic or unsupported format version".into());
    }
    let mut r = Reader::new(header);
    let tag = r.u8("tier tag").map_err(fail)?;
    let Some(tier) = SubTier::from_tag(tag) else {
        return Err(format!("unknown tier tag {tag}"));
    };
    let key = r.u128("key").map_err(fail)?;
    let payload_len = r.len("payload length").map_err(fail)?;
    let payload = &header[r.offset()..];
    if payload.len() != payload_len {
        return Err("payload length field disagrees with file size".into());
    }
    Ok((tier, key, payload.to_vec()))
}

/// Bundles already-framed sub-artifacts into a one-segment snapshot
/// pack, the bytes of one segment file:
///
/// ```text
/// magic "ROCKSPK\x02" | segment | segment | ...   (at least one)
/// segment = frame count u64 | count × (frame len u64 | encode_sub frame)
///           | FNV-1a checksum u64 (over the segment's bytes before it)
/// ```
///
/// Each embedded frame keeps its own checksum, so every frame verifies
/// on its own.
pub fn encode_snapshot(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut pack = SNAPSHOT_MAGIC.to_vec();
    append_segment(&mut pack, frames);
    pack
}

/// Appends `frames` to a pack as one self-checksummed segment.
fn append_segment(pack: &mut Vec<u8>, frames: &[Vec<u8>]) {
    let mut w = Writer::new();
    w.len(frames.len());
    for frame in frames {
        w.blob(frame);
    }
    let segment = w.into_bytes();
    pack.extend_from_slice(&segment);
    pack.extend_from_slice(&fnv1a(&segment).to_le_bytes());
}

/// Decodes a snapshot pack into its (tier, key, payload) entries, in
/// pack order. Magic, every segment's checksum and framing, and each
/// embedded sub-artifact frame are all verified; any damage, in any
/// segment, rejects the whole pack. Preload and scrub read segment
/// files frame by frame instead ([`decode_segment`]).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(SubTier, u128, Vec<u8>)>, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 + 8 {
        return Err("pack shorter than the fixed frame".into());
    }
    match walk_frames(bytes) {
        (_, Some(why)) => Err(why),
        (frames, None) => frames.into_iter().map(decode_sub).collect(),
    }
}

/// Locates the frames of a pack, in order, and reports the first damage
/// to its framing: a bad magic, a segment checksum that does not match,
/// or a length or count that runs past the end. The walk goes on past a
/// checksum mismatch, since every frame still carries its own checksum,
/// but stops at the end of the bytes: frames after a broken length
/// field are lost.
fn walk_frames(bytes: &[u8]) -> (Vec<&[u8]>, Option<String>) {
    let Some(body) = bytes.strip_prefix(SNAPSHOT_MAGIC.as_slice()) else {
        return (Vec::new(), Some("bad pack magic or unsupported format version".into()));
    };
    let mut frames = Vec::new();
    let mut damage = None;
    let mut r = Reader::new(body);
    while !r.is_at_end() {
        let start = r.offset();
        let segment = r.u64("frame count").and_then(|count| {
            for _ in 0..count {
                let len = r.len("frame length")?;
                frames.push(r.bytes(len, "frame")?);
            }
            let end = r.offset();
            Ok((end, r.u64("segment checksum")?))
        });
        let Ok((end, checksum)) = segment else {
            return (frames, damage.or_else(|| Some("pack truncated inside a segment".into())));
        };
        if fnv1a(&body[start..end]) != checksum && damage.is_none() {
            damage = Some("pack segment checksum mismatch".into());
        }
    }
    (frames, damage)
}

/// What one segment file yields, frame by frame.
pub(crate) struct Segment {
    /// Every frame that passed [`decode_sub`], in file order.
    pub(crate) entries: Vec<(SubTier, u128, Vec<u8>)>,
    /// Frames that failed [`decode_sub`].
    pub(crate) bad_frames: u64,
    /// The first damage found, in the framing or in a frame (`None`:
    /// the file is intact).
    pub(crate) damage: Option<String>,
}

/// Decodes a segment file frame by frame: a damaged file costs only the
/// frames that fail their own checksum, and those lost with a broken
/// length field.
pub(crate) fn decode_segment(bytes: &[u8]) -> Segment {
    let (frames, mut damage) = walk_frames(bytes);
    let (mut entries, mut bad_frames) = (Vec::with_capacity(frames.len()), 0);
    for frame in frames {
        match decode_sub(frame) {
            Ok(entry) => entries.push(entry),
            Err(why) => {
                bad_frames += 1;
                damage.get_or_insert(why);
            }
        }
    }
    Segment { entries, bad_frames, damage }
}

/// Writes `bytes` as one segment file directly under `<root>/sub/`,
/// named `<fnv1a:016x>.pack` after its bytes: temp file + atomic
/// rename, with the file fsynced before the rename in `durable` mode.
/// A failed write removes its temp file.
pub(crate) fn write_segment(store: &ArtifactStore, bytes: &[u8]) -> io::Result<()> {
    let dir = store.sub_dir();
    let name = format!("{:016x}{SEGMENT_SUFFIX}", fnv1a(bytes));
    let tmp = dir.join(format!(".{name}.tmp"));
    let result = store.with_retry_op(OpClass::Write, || {
        store.vfs().write(&tmp, bytes)?;
        if store.durable() {
            store.vfs().sync_file(&tmp)?;
        }
        store.vfs().rename(&tmp, &dir.join(&name))
    });
    if result.is_err() {
        let _ = store.vfs().remove_file(&tmp);
    }
    result
}

/// Restores every trusted sub-artifact on disk into `corpus`, marked
/// persisted so no later flush rewrites it: one listing of `sub/` and
/// one read per segment file.
///
/// Untrusted frames (a failed checksum, a payload that fails the
/// importer's content validation) are skipped and counted — they
/// recompute, and scrub deals with the file. A damaged file counts each
/// frame it could not deliver, and at least once: a file whose framing
/// broke (a torn tail, a bad magic, an older format) counts once for
/// what it lost. Call before running jobs; preloading is cheap relative
/// to one reconstruction and makes every unchanged
/// function/type/pair/family a cache hit.
///
/// Returns the `incr.preloaded`, `incr.corrupt_skipped` and
/// `incr.io_errors` counts.
pub fn preload_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> MetricsRegistry {
    let (mut preloaded, mut corrupt_skipped, mut io_errors) = (0, 0, 0);
    let files = match store.with_retry_op(OpClass::Read, || store.vfs().list(&store.sub_dir())) {
        Ok(files) => files,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(_) => {
            io_errors += 1;
            Vec::new()
        }
    };
    for file in files.iter().filter(|f| entry_name(f).ends_with(SEGMENT_SUFFIX)) {
        match store.with_retry_op(OpClass::Read, || store.vfs().read(file)) {
            Ok(bytes) => {
                let segment = decode_segment(&bytes);
                let mut lost = segment.bad_frames;
                for (tier, key, payload) in &segment.entries {
                    if corpus.import_entry(*tier, *key, payload) {
                        preloaded += 1;
                    } else {
                        lost += 1;
                    }
                }
                corrupt_skipped += lost.max(u64::from(segment.damage.is_some()));
            }
            // Moved away since the listing (a concurrent scrub).
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => io_errors += 1,
        }
    }
    let mut stats = MetricsRegistry::new();
    stats.set(names::INCR_PRELOADED, preloaded);
    stats.set(names::INCR_CORRUPT_SKIPPED, corrupt_skipped);
    stats.set(names::INCR_IO_ERRORS, io_errors);
    stats
}

/// Persists what `corpus` added since its last flush (or preload) as
/// one segment file ([`write_segment`]; in `durable` mode `sub/` is
/// fsynced after the rename).
///
/// Entries already persisted are counted as `unchanged` and never
/// touched, so a flush after a run that computed nothing new makes no
/// storage call at all. A failed write hands every claimed entry back
/// to the corpus for the next flush and counts one i/o error.
///
/// Returns the `incr.flushed`, `incr.unchanged` and `incr.io_errors`
/// counts.
pub fn flush_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> MetricsRegistry {
    let (claimed, unchanged) = corpus.claim_unpersisted();
    let (mut flushed, mut io_errors) = (claimed.len() as u64, 0);
    if !claimed.is_empty() {
        let frames: Vec<Vec<u8>> =
            claimed.iter().map(|(tier, key, payload)| encode_sub(*tier, *key, payload)).collect();
        if write_segment(store, &encode_snapshot(&frames)).is_ok() {
            if store.durable() && store.vfs().sync_dir(&store.sub_dir()).is_err() {
                io_errors += 1;
            }
        } else {
            for (tier, key, payload) in &claimed {
                corpus.unclaim(*tier, *key, payload);
            }
            flushed = 0;
            io_errors += 1;
        }
    }
    let mut stats = MetricsRegistry::new();
    stats.set(names::INCR_FLUSHED, flushed);
    stats.set(names::INCR_UNCHANGED, unchanged);
    stats.set(names::INCR_IO_ERRORS, io_errors);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let key = 0xdead_beef_0123_4567_89ab_cdef_1122_3344u128;
        for tier in SubTier::ALL {
            let bytes = encode_sub(tier, key, &payload);
            let (t, k, p) = decode_sub(&bytes).expect("round trip");
            assert_eq!(t, tier);
            assert_eq!(k, key);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn frame_rejects_damage() {
        let bytes = encode_sub(SubTier::Model, 42, b"payload");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_sub(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(decode_sub(&bytes[..bytes.len() - 1]).is_err(), "truncation must be caught");
        assert!(decode_sub(&[]).is_err());
    }

    #[test]
    fn frame_rejects_unknown_tier_tag() {
        let bytes = encode_sub(SubTier::Exec, 7, b"x");
        // Rebuild with a bogus tier tag and a fixed-up checksum: the
        // tag check itself must fire, not just the checksum.
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        bad[SUB_MAGIC.len()] = 99;
        let checksum = fnv1a(&bad);
        bad.extend_from_slice(&checksum.to_le_bytes());
        let err = decode_sub(&bad).expect_err("bad tag");
        assert!(err.contains("tier tag"), "{err}");
    }

    #[test]
    fn snapshot_round_trips() {
        let frames = vec![
            encode_sub(SubTier::Exec, 1, b"\x00abc"),
            encode_sub(SubTier::Model, 0xffee_ddcc_bbaa_9988_7766_5544_3322_1100, b"m"),
            encode_sub(SubTier::Lifting, 7, &[]),
        ];
        let pack = encode_snapshot(&frames);
        let entries = decode_snapshot(&pack).expect("round trip");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (SubTier::Exec, 1, b"\x00abc".to_vec()));
        assert_eq!(
            entries[1],
            (SubTier::Model, 0xffee_ddcc_bbaa_9988_7766_5544_3322_1100, b"m".to_vec())
        );
        assert_eq!(entries[2], (SubTier::Lifting, 7, Vec::new()));
        let empty = decode_snapshot(&encode_snapshot(&[])).expect("empty pack");
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_rejects_damage() {
        let pack = encode_snapshot(&[encode_sub(SubTier::Distance, 9, b"d")]);
        for i in 0..pack.len() {
            let mut bad = pack.clone();
            bad[i] ^= 0x01;
            assert!(decode_snapshot(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(decode_snapshot(&pack[..pack.len() - 1]).is_err(), "truncation must be caught");
        assert!(decode_snapshot(&[]).is_err());
        // A sub-artifact frame is not a pack.
        assert!(decode_snapshot(&encode_sub(SubTier::Exec, 1, b"x")).is_err());
    }

    #[test]
    fn appended_segments_decode_in_order_and_damage_rejects_the_pack() {
        let mut pack = encode_snapshot(&[encode_sub(SubTier::Exec, 1, b"a")]);
        let first = pack.len();
        append_segment(&mut pack, &[]);
        append_segment(
            &mut pack,
            &[encode_sub(SubTier::Model, 2, b"b"), encode_sub(SubTier::Lifting, 3, b"")],
        );
        let entries = decode_snapshot(&pack).expect("segments decode");
        assert_eq!(
            entries,
            vec![
                (SubTier::Exec, 1, b"a".to_vec()),
                (SubTier::Model, 2, b"b".to_vec()),
                (SubTier::Lifting, 3, Vec::new()),
            ]
        );
        // Damage in a later segment rejects the whole pack, and so does
        // a torn final segment.
        for i in first..pack.len() {
            let mut bad = pack.clone();
            bad[i] ^= 0x01;
            assert!(decode_snapshot(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(decode_snapshot(&pack[..pack.len() - 3]).is_err());
        // The magic alone carries no segment.
        assert!(decode_snapshot(SNAPSHOT_MAGIC).is_err());
    }

    #[test]
    fn a_damaged_segment_costs_only_the_frames_it_loses() {
        let frames: Vec<Vec<u8>> =
            (0..4u8).map(|i| encode_sub(SubTier::Exec, i.into(), &[i])).collect();
        let pack = encode_snapshot(&frames);
        let intact = decode_segment(&pack);
        assert_eq!((intact.entries.len(), intact.bad_frames, intact.damage), (4, 0, None));

        // A flipped byte inside frame 1 costs that frame alone.
        let frame1 = 8 + 8 + (8 + frames[0].len()) + 8;
        let mut bad = pack.clone();
        bad[frame1 + 20] ^= 0xFF;
        let rotted = decode_segment(&bad);
        let keys: Vec<u128> = rotted.entries.iter().map(|(_, k, _)| *k).collect();
        assert_eq!((keys, rotted.bad_frames), (vec![0, 2, 3], 1));
        assert!(rotted.damage.is_some());

        // A flipped segment checksum loses nothing but is still damage.
        let mut bad = pack.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let checksum = decode_segment(&bad);
        assert_eq!((checksum.entries.len(), checksum.bad_frames), (4, 0));
        assert_eq!(checksum.damage.as_deref(), Some("pack segment checksum mismatch"));

        // A torn tail keeps the frames before the tear.
        let torn = decode_segment(&pack[..frame1 + 20]);
        assert_eq!((torn.entries.len(), torn.bad_frames), (1, 0));
        assert_eq!(torn.damage.as_deref(), Some("pack truncated inside a segment"));

        // A file in another format yields nothing.
        let alien = decode_segment(b"ROCKSPK\x01 and more");
        assert_eq!((alien.entries.len(), alien.bad_frames), (0, 0));
        assert!(alien.damage.is_some());
    }
}

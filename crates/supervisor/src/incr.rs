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
//! On-disk layout, under the artifact store root:
//!
//! ```text
//! <root>/sub/<tier>/<key:032x>.sub   (loose: source of truth)
//! <root>/sub/snapshot.pack           (read-optimized accelerator)
//! ```
//!
//! The loose files give scrub its per-artifact quarantine granularity;
//! the snapshot pack bundles the same frames into one file so a warm
//! preload is one large read instead of thousands of tiny opens.
//! Preload imports a pack entry only when the matching loose file is
//! present in the tier listing (the listing is authoritative — a
//! quarantined artifact cannot be resurrected from a stale pack), and
//! falls back to loose reads for anything the pack cannot serve.
//!
//! Each file is framed as:
//!
//! ```text
//! magic "ROCKSUB\x01" | tier tag u8 | key lo u64 | key hi u64
//! | payload len u64 | payload | FNV-1a checksum u64 (over everything
//! before it)
//! ```
//!
//! Staleness defenses are layered: the frame checksum catches torn or
//! bit-rotted files; the frame's tier/key must agree with the path the
//! file was found under (a misfiled artifact is rejected, not
//! re-homed); and [`rock_core::CorpusCache::import_entry`] re-derives
//! each payload's own key from its decoded content (a model must
//! reproduce its pool key, a distance its disk key), so a payload can
//! never be loaded under a key it does not hash to. A rejected file is
//! counted (`incr.corrupt_skipped`) and simply recomputes —
//! degradation, never stale reuse. `rock store scrub` quarantines such
//! files individually without touching their tier siblings.
//!
//! A flush costs what was added since the last one, not what the store
//! holds. Every corpus entry carries a persisted mark (preloaded
//! entries arrive marked); [`flush_subartifacts`] claims the unmarked
//! ones ([`rock_core::CorpusCache::claim_unpersisted`], which visits
//! only keys stored since the last claim), writes one loose file per
//! claim through a temp file + atomic rename, hands a failed write
//! back, and appends the frames it committed to the pack as one
//! segment. A stage-boundary flush writes the loose files only and
//! leaves its frames pending in the store, so a job writes the pack
//! once, after its last stage, and a batch once, in its final flush.
//! A flush lists no directory and reads nothing. Within a
//! process first-write-wins therefore holds by construction: a claimed
//! entry goes to exactly one flush, and a writer that does reach an
//! existing file (a second process, or a corpus that never preloaded
//! the store) writes the same content-addressed frame through tmp +
//! rename. In `durable` mode files are fsynced before rename and each
//! tier directory after its batch. All traffic goes through the store's
//! [`crate::vfs::Vfs`] seam, retry policy, and fault accounting, so
//! chaos tests exercise this layer under injected storage faults.
//!
//! The pack bytes a store last verified at preload, or last wrote, stay
//! in the store's shared state with the pending frames; a pack write
//! appends those to them and rewrites the file whole (tmp + rename), and
//! the same lock serialises flushes across the daemon's workers. A pack
//! that lags the loose files costs a resume only loose-file reads, since
//! preload falls back to them. A store that holds no verified pack —
//! none on disk, a damaged one, an older format, or one that does not
//! mirror the loose files — rebuilds it whole at its next flush.
//!
//! The warm ≡ cold invariant holds end to end: preloaded entries only
//! ever short-circuit work whose outputs are bit-identical to
//! recomputation (enforced by `tests/incremental_delta.rs`), and the
//! `incr.*` counters preload and flush return ride in the batch and
//! daemon registries only, never in the pipeline's own registry or
//! diagnostics.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use rock_binary::codec::{Reader, WireError, Writer};
use rock_core::{par_map, CorpusCache, Parallelism, SubTier};
use rock_trace::{fnv1a, names, MetricsRegistry};

use crate::artifact::{ArtifactStore, OpClass, PackState};

/// The 8-byte sub-artifact file magic; the trailing byte is the format
/// version. Bumps invalidate every existing sub-artifact.
pub const SUB_MAGIC: &[u8; 8] = b"ROCKSUB\x01";

/// The 8-byte snapshot-pack magic; the trailing byte is the format
/// version. Bumps make existing packs unreadable, which merely drops
/// preload back to loose files until the next flush rebuilds the pack
/// whole. v2: the body is a sequence of self-checksummed segments, so a
/// flush appends one instead of re-encoding every entry.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ROCKSPK\x02";

/// Filename of the read-optimized snapshot pack, directly under
/// `<root>/sub/`. The pack bundles every framed sub-artifact into one
/// file so a warm preload costs one read instead of one per artifact —
/// on the patch-and-rerun critical path, thousands of tiny loose-file
/// opens are the dominant cost. The loose files stay the source of
/// truth (scrub granularity); the pack is purely an accelerator, and
/// every flush that commits something appends a segment to it.
pub const SNAPSHOT_NAME: &str = "snapshot.pack";

/// The filename of one sub-artifact: 32 lowercase hex digits + `.sub`.
pub fn sub_file_name(key: u128) -> String {
    format!("{key:032x}.sub")
}

/// Parses a `<key:032x>.sub` filename back to its key. Returns `None`
/// unless the name round-trips exactly (length, case, suffix).
pub fn key_of_sub_name(name: &str) -> Option<u128> {
    let hex = name.strip_suffix(".sub")?;
    if hex.len() != 32 {
        return None;
    }
    let key = u128::from_str_radix(hex, 16).ok()?;
    (name == sub_file_name(key)).then_some(key)
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
/// pack:
///
/// ```text
/// magic "ROCKSPK\x02" | segment | segment | ...   (at least one)
/// segment = frame count u64 | count × (frame len u64 | encode_sub frame)
///           | FNV-1a checksum u64 (over the segment's bytes before it)
/// ```
///
/// A flush appends its frames as one more segment. Each embedded frame
/// keeps its own checksum, so a pack entry is exactly as trustworthy as
/// the loose file it mirrors.
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
/// embedded sub-artifact frame are all verified; any damage — in any
/// segment — rejects the whole pack (callers fall back to loose files;
/// the pack is never the only copy).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(SubTier, u128, Vec<u8>)>, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 + 8 {
        return Err("pack shorter than the fixed frame".into());
    }
    let (magic, body) = bytes.split_at(SNAPSHOT_MAGIC.len());
    if magic != SNAPSHOT_MAGIC {
        return Err("bad pack magic or unsupported format version".into());
    }
    let truncated = |_: WireError| "pack truncated inside a segment".to_string();
    // Each segment's frames are located in place and decoded only after
    // the segment's checksum holds.
    let mut entries = Vec::new();
    let mut r = Reader::new(body);
    while !r.is_at_end() {
        let start = r.offset();
        let count = r.u64("frame count").map_err(truncated)?;
        let mut frames = Vec::new();
        for _ in 0..count {
            let len = r.len("frame length").map_err(truncated)?;
            frames.push(r.bytes(len, "frame").map_err(truncated)?);
        }
        let segment = &body[start..r.offset()];
        if fnv1a(segment) != r.u64("segment checksum").map_err(truncated)? {
            return Err("pack segment checksum mismatch".into());
        }
        for frame in frames {
            entries.push(decode_sub(frame)?);
        }
    }
    Ok(entries)
}

/// Deep verification for scrub: the frame must decode, its tier and
/// key must match where the file was found, and the payload must pass
/// the corpus importer's full content validation (replayed into
/// `scratch`, a throwaway cache).
pub fn verify_sub_bytes(
    tier: SubTier,
    key: u128,
    bytes: &[u8],
    scratch: &CorpusCache,
) -> Result<(), String> {
    let (t, k, payload) = decode_sub(bytes)?;
    if t != tier {
        return Err(format!("tier {} does not match directory {}", t.name(), tier.name()));
    }
    if k != key {
        return Err(format!("key {k:032x} does not match filename {key:032x}"));
    }
    if !scratch.import_entry(t, k, &payload) {
        return Err("payload failed corpus validation".into());
    }
    Ok(())
}

/// Restores every trusted sub-artifact on disk into `corpus`, marked
/// persisted so no later flush rewrites it.
///
/// Untrusted files (bad frame, tier/key mismatch, payload that fails
/// the importer's content validation) are skipped and counted — they
/// recompute, and the next flush or scrub deals with them. Call before
/// running jobs; preloading is cheap relative to one reconstruction
/// and makes every unchanged function/type/pair/family a cache hit.
///
/// The store keeps the pack's bytes for later flushes to append to
/// only when the pack mirrors the tier listing exactly (each listed
/// entry once, nothing else); otherwise it holds no verified pack, and
/// the next flush rebuilds one whole.
///
/// Returns the `incr.preloaded`, `incr.corrupt_skipped` and
/// `incr.io_errors` counts.
pub fn preload_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> MetricsRegistry {
    let mut held = store.pack();
    *held = PackState::default();
    let (mut preloaded, mut corrupt_skipped, mut io_errors) = (0, 0, 0);
    // Gather the per-tier listings up front (one readdir per tier):
    // the listings are the index of what the store currently trusts.
    // Everything the snapshot pack can serve is imported from it in
    // one read; only stragglers (entries newer than the pack, or a
    // corrupt/missing pack) fall back to loose-file reads, fanned
    // across threads. Preload sits on the patch-and-rerun critical
    // path, where a serial loop over thousands of small files would
    // eat the very latency the incremental store exists to save.
    let mut work: Vec<(SubTier, PathBuf, u128)> = Vec::new();
    for tier in SubTier::ALL {
        let dir = store.sub_tier_dir(tier);
        let files = match store.with_retry_op(OpClass::Read, || store.vfs().list(&dir)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(_) => {
                io_errors += 1;
                continue;
            }
        };
        for file in files {
            let name = file_name(&file);
            if name.ends_with(".sub.tmp") {
                continue; // crash debris; the open-time sweep owns it
            }
            // A file under an unknown name (an editor backup, an alien
            // file) holds no entry, so nothing is lost: scrub owns it.
            let Some(key) = key_of_sub_name(&name) else { continue };
            work.push((tier, file, key));
        }
    }
    // Serve what we can from the snapshot pack first. An entry is only
    // imported if its loose file appears in the tier listing gathered
    // above — the listing is authoritative, so a quarantined or
    // deleted artifact can never be resurrected from a stale pack.
    // Any pack damage (or a pack entry whose payload fails the
    // importer) simply leaves that entry to the loose-file path below.
    let listed: HashSet<(u8, u128)> = work.iter().map(|(t, _, k)| (t.tag(), *k)).collect();
    let mut served: HashSet<(u8, u128)> = HashSet::new();
    let snap_path = store.sub_dir().join(SNAPSHOT_NAME);
    match store.with_retry_op(OpClass::Read, || store.vfs().read(&snap_path)) {
        Ok(bytes) => match decode_snapshot(&bytes) {
            Ok(entries) => {
                let exact = entries.len() == listed.len();
                for (tier, key, payload) in entries {
                    let id = (tier.tag(), key);
                    if listed.contains(&id)
                        && !served.contains(&id)
                        && corpus.import_entry(tier, key, &payload)
                    {
                        preloaded += 1;
                        served.insert(id);
                    }
                }
                // Later flushes append to this pack only if it holds
                // every listed entry once and nothing else.
                if exact && served.len() == listed.len() {
                    held.bytes = Some(bytes);
                }
            }
            Err(_) => corrupt_skipped += 1, // scrub quarantines it
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(_) => io_errors += 1,
    }
    work.retain(|(t, _, k)| !served.contains(&(t.tag(), *k)));
    let preload_one = |(tier, file, key): &(SubTier, PathBuf, u128)| match store
        .with_retry_op(OpClass::Read, || store.vfs().read(file))
    {
        Ok(bytes) => match decode_sub(&bytes) {
            Ok((t, k, payload)) if t == *tier && k == *key => {
                if corpus.import_entry(t, k, &payload) {
                    Loaded::Imported
                } else {
                    Loaded::Rejected
                }
            }
            _ => Loaded::Rejected,
        },
        Err(_) => Loaded::Unreadable,
    };
    for loaded in par_map(io_parallelism(work.len()), &work, preload_one) {
        match loaded {
            Loaded::Imported => preloaded += 1,
            Loaded::Rejected => corrupt_skipped += 1,
            Loaded::Unreadable => io_errors += 1,
        }
    }
    let mut stats = MetricsRegistry::new();
    stats.set(names::INCR_PRELOADED, preloaded);
    stats.set(names::INCR_CORRUPT_SKIPPED, corrupt_skipped);
    stats.set(names::INCR_IO_ERRORS, io_errors);
    stats
}

/// What preloading one loose sub-artifact file did.
enum Loaded {
    /// Verified and imported into the corpus.
    Imported,
    /// Bad frame, misfiled, or rejected by the importer.
    Rejected,
    /// The read failed after retries.
    Unreadable,
}

/// The thread policy of the store's file fan-outs: the calling thread
/// for small batches, where spawn overhead would dominate, and at most
/// eight workers otherwise.
fn io_parallelism(items: usize) -> Parallelism {
    if items < 64 {
        Parallelism::Serial
    } else {
        Parallelism::Threads(Parallelism::Auto.thread_count().min(8))
    }
}

/// Persists what `corpus` added since its last flush (or preload): one
/// framed file per claimed sub-artifact (temp file + atomic rename;
/// fsyncs in `durable` mode), then one pack segment holding the frames
/// it committed and those earlier loose-only flushes left pending.
///
/// Entries already persisted are counted as `unchanged` and never
/// touched, so once the store holds a verified pack, a flush after a
/// run that computed nothing new makes no storage call at all. A failed
/// write hands its entry back to the corpus for the next flush. A store
/// holding no verified pack rebuilds it whole from every persisted
/// entry. Flushes of one store run one at a time.
///
/// Returns the `incr.flushed`, `incr.unchanged` and `incr.io_errors`
/// counts.
pub fn flush_subartifacts(store: &ArtifactStore, corpus: &CorpusCache) -> MetricsRegistry {
    flush(store, corpus, true)
}

/// Like [`flush_subartifacts`], but leaves the pack file alone: the
/// frames it commits wait in the store for the next pack write. A
/// stage-boundary flush writes only loose files, which is all a resume
/// needs (preload reads the loose files a pack lacks), so a batch
/// rewrites its pack once instead of at every boundary.
pub(crate) fn flush_loose(store: &ArtifactStore, corpus: &CorpusCache) -> MetricsRegistry {
    flush(store, corpus, false)
}

fn flush(store: &ArtifactStore, corpus: &CorpusCache, pack: bool) -> MetricsRegistry {
    let mut state = store.pack();
    let (claimed, unchanged) = corpus.claim_unpersisted();
    if state.bytes.is_none() && unchanged == 0 && state.pending.is_empty() {
        // Nothing was persisted before this flush, so a pack holding
        // exactly what flushes commit from here on mirrors the store.
        state.bytes = Some(SNAPSHOT_MAGIC.to_vec());
    }
    let mut io_errors = 0;
    let committed = write_claimed(store, corpus, &claimed, &mut io_errors);
    let flushed = committed.len() as u64;
    if state.bytes.is_some() {
        state.pending.extend(committed);
    }
    if pack {
        io_errors += write_pack(store, corpus, &mut state);
    }
    let mut stats = MetricsRegistry::new();
    stats.set(names::INCR_FLUSHED, flushed);
    stats.set(names::INCR_UNCHANGED, unchanged);
    stats.set(names::INCR_IO_ERRORS, io_errors);
    stats
}

/// Appends the pending frames to the held pack as one segment, or
/// rebuilds the pack whole when the store holds no verified one, and
/// writes it. Returns the i/o errors it met (0 or 1).
fn write_pack(store: &ArtifactStore, corpus: &CorpusCache, state: &mut PackState) -> u64 {
    let frames = std::mem::take(&mut state.pending);
    let bytes = match state.bytes.as_mut() {
        Some(_) if frames.is_empty() => return 0,
        Some(bytes) => {
            append_segment(bytes, &frames);
            bytes
        }
        None => {
            // No verified pack to append to: rebuild it whole from
            // everything persisted.
            let frames: Vec<Vec<u8>> =
                corpus.export_entries().iter().map(|(t, k, p)| encode_sub(*t, *k, p)).collect();
            if frames.is_empty() {
                return 0;
            }
            state.bytes.insert(encode_snapshot(&frames))
        }
    };
    // A failed pack write keeps the bytes: the next flush that commits
    // something rewrites the file with them.
    let sub_root = store.sub_dir();
    let tmp = sub_root.join(format!(".{SNAPSHOT_NAME}.tmp"));
    let dst = sub_root.join(SNAPSHOT_NAME);
    let result = store.with_retry_op(OpClass::Write, || {
        store.vfs().write(&tmp, bytes)?;
        if store.durable() {
            store.vfs().sync_file(&tmp)?;
        }
        store.vfs().rename(&tmp, &dst)
    });
    match result {
        Ok(()) if store.durable() && store.vfs().sync_dir(&sub_root).is_err() => 1,
        Ok(()) => 0,
        Err(_) => {
            let _ = store.vfs().remove_file(&tmp);
            1
        }
    }
}

/// Writes each claimed entry to its loose file, fanned across threads
/// (distinct keys mean distinct tmp and destination paths, so the
/// writes commute). Hands every failed entry back to `corpus`, counts
/// it in `io_errors`, and returns the committed frames in claim order.
fn write_claimed(
    store: &ArtifactStore,
    corpus: &CorpusCache,
    claimed: &[(SubTier, u128, Vec<u8>)],
    io_errors: &mut u64,
) -> Vec<Vec<u8>> {
    let tiers: Vec<SubTier> =
        SubTier::ALL.into_iter().filter(|&t| claimed.iter().any(|(c, ..)| *c == t)).collect();
    for &tier in &tiers {
        let dir = store.sub_tier_dir(tier);
        if store.with_retry_op(OpClass::Write, || store.vfs().create_dir_all(&dir)).is_err() {
            *io_errors += 1;
        }
    }
    let write_one = |(tier, key, payload): &(SubTier, u128, Vec<u8>)| {
        let frame = encode_sub(*tier, *key, payload);
        let name = sub_file_name(*key);
        let dir = store.sub_tier_dir(*tier);
        let tmp = dir.join(format!(".{name}.tmp"));
        let result = store.with_retry_op(OpClass::Write, || {
            store.vfs().write(&tmp, &frame)?;
            if store.durable() {
                store.vfs().sync_file(&tmp)?;
            }
            store.vfs().rename(&tmp, &dir.join(&name))
        });
        if result.is_ok() {
            return Some(frame);
        }
        let _ = store.vfs().remove_file(&tmp);
        corpus.unclaim(*tier, *key, payload);
        None
    };
    let results = par_map(io_parallelism(claimed.len()), claimed, write_one);
    if store.durable() {
        for &tier in &tiers {
            let wrote = claimed.iter().zip(&results).any(|((t, ..), r)| *t == tier && r.is_some());
            if wrote && store.vfs().sync_dir(&store.sub_tier_dir(tier)).is_err() {
                *io_errors += 1;
            }
        }
    }
    let committed: Vec<Vec<u8>> = results.into_iter().flatten().collect();
    *io_errors += (claimed.len() - committed.len()) as u64;
    committed
}

fn file_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
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
    fn sub_names_round_trip_and_reject_lookalikes() {
        let key = 0x0000_0000_0000_0000_0000_0000_0000_002au128;
        let name = sub_file_name(key);
        assert_eq!(name, "0000000000000000000000000000002a.sub");
        assert_eq!(key_of_sub_name(&name), Some(key));
        assert_eq!(key_of_sub_name("0000000000000000000000000000002A.sub"), None);
        assert_eq!(key_of_sub_name("2a.sub"), None);
        assert_eq!(key_of_sub_name("0000000000000000000000000000002a.art"), None);
        assert_eq!(key_of_sub_name(".0000000000000000000000000000002a.sub.tmp"), None);
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
    fn verify_rejects_misfiled_frames() {
        let scratch = CorpusCache::new();
        let bytes = encode_sub(SubTier::Lifting, 5, &[]);
        let err = verify_sub_bytes(SubTier::Model, 5, &bytes, &scratch).expect_err("tier");
        assert!(err.contains("does not match directory"), "{err}");
        let err = verify_sub_bytes(SubTier::Lifting, 6, &bytes, &scratch).expect_err("key");
        assert!(err.contains("does not match filename"), "{err}");
    }
}

//! Seeded, clock-free storage fault injection.
//!
//! [`FaultyVfs`] wraps a real [`Vfs`] and makes it lie on schedule:
//! torn writes, ENOSPC, transient EIO, rename failures, partial reads,
//! and crash-shaped stale tmp files. Which operation faults — and how —
//! is decided by a [`ChaosPlan`], which follows the same SplitMix64
//! discipline as `rock_core::FaultPlan`: a seed plus a per-mille rate,
//! hashed per operation *sequence number*, so a given seed produces the
//! same fault schedule on every run and at every thread count, with no
//! clocks and no global RNG state.
//!
//! Two knobs:
//! - **seeded sweeps** — `ChaosPlan::seeded(seed, rate_per_mille)`
//!   faults a pseudo-random subset of operations; CI sweeps seeds.
//! - **directives** — `with_directive(op, nth, flavor)` pins one exact
//!   fault ("the 3rd rename fails ENOSPC") for targeted regressions.
//!
//! Determinism caveat: the *schedule* is deterministic per op-sequence,
//! so it is reproducible for a fixed call pattern (one job, or jobs
//! submitted serially). Concurrent workers interleave op sequences
//! nondeterministically — the chaos soak embraces that: whatever
//! subset fires, the recovery obligations must hold.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::vfs::Vfs;

/// SplitMix64 — the same mixer `rock_core::faultplan` uses, duplicated
/// here because that one is a private detail of its module.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The Vfs operation classes a [`ChaosPlan`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChaosOp {
    /// Whole-file reads ([`Vfs::read`]).
    Read,
    /// Whole-file writes ([`Vfs::write`]).
    Write,
    /// Commit renames ([`Vfs::rename`]).
    Rename,
    /// File / tree removal ([`Vfs::remove_file`], [`Vfs::remove_dir_all`]).
    Remove,
    /// Directory listing ([`Vfs::list`]).
    List,
    /// Durability syncs ([`Vfs::sync_file`], [`Vfs::sync_dir`]).
    Sync,
    /// Directory creation ([`Vfs::create_dir_all`]).
    CreateDir,
}

impl ChaosOp {
    fn lane(self) -> u64 {
        self as u64
    }
}

/// How an injected fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFlavor {
    /// The write lands a seeded prefix of the data, then errors: the
    /// classic torn write. Persistent for this attempt; the tmp-file
    /// protocol keeps the torn bytes out of committed artifacts.
    TornWrite,
    /// The write lands a seeded prefix of the data and *reports
    /// success* — only the artifact checksum can catch this one.
    SilentTorn,
    /// ENOSPC: the disk is full. Persistent — retrying won't help.
    Enospc,
    /// EINTR-shaped transient error; a bounded retry clears it.
    TransientEio,
    /// The rename (commit point) fails; the tmp file is still
    /// removable, so a store cleanup leaves no debris.
    RenameFail,
    /// The read returns a seeded prefix of the real bytes, as a short
    /// read would after a torn write on the far side of a crash.
    PartialRead,
    /// Crash shape: the rename fails AND the tmp file becomes
    /// unremovable for one attempt, stranding a stale `.sub.tmp`
    /// exactly like a process that died between write and rename.
    CrashTmp,
    /// The operation fails with a generic persistent EIO.
    Eio,
}

/// One pinned fault: the `nth` call (0-based) of `op` fails as `flavor`.
#[derive(Clone, Copy, Debug)]
pub struct ChaosDirective {
    /// Operation class to target.
    pub op: ChaosOp,
    /// Which call of that class (0-based, counted per plan instance).
    pub nth: u64,
    /// How the fault manifests.
    pub flavor: ChaosFlavor,
}

/// A deterministic storage fault schedule (see module docs).
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    seed: u64,
    rate_per_mille: u64,
    directives: Vec<ChaosDirective>,
}

impl ChaosPlan {
    /// A plan that faults roughly `rate_per_mille`/1000 of operations,
    /// chosen by `seed`. Rates above 1000 clamp to "always".
    pub fn seeded(seed: u64, rate_per_mille: u64) -> ChaosPlan {
        ChaosPlan { seed, rate_per_mille: rate_per_mille.min(1000), directives: Vec::new() }
    }

    /// A plan that never fires on its own; add directives for pinpoint
    /// faults.
    pub fn quiet() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Adds one pinned fault (builder-style).
    pub fn with_directive(mut self, op: ChaosOp, nth: u64, flavor: ChaosFlavor) -> ChaosPlan {
        self.directives.push(ChaosDirective { op, nth, flavor });
        self
    }

    fn draw(&self, op: ChaosOp, seq: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64((op.lane() << 32) ^ seq))
    }

    /// Decides the fate of the `seq`-th call of `op`. Directives win
    /// over the seeded rate; the seeded flavor comes from a second,
    /// independent draw so rate and flavor don't correlate.
    pub fn decide(&self, op: ChaosOp, seq: u64) -> Option<ChaosFlavor> {
        for d in &self.directives {
            if d.op == op && d.nth == seq {
                return Some(d.flavor);
            }
        }
        if self.rate_per_mille == 0 || self.draw(op, seq) % 1000 >= self.rate_per_mille {
            return None;
        }
        let pick = self.draw(op, !seq);
        Some(match op {
            ChaosOp::Write => match pick % 4 {
                0 => ChaosFlavor::TornWrite,
                1 => ChaosFlavor::SilentTorn,
                2 => ChaosFlavor::Enospc,
                _ => ChaosFlavor::TransientEio,
            },
            ChaosOp::Rename => match pick % 3 {
                0 => ChaosFlavor::RenameFail,
                1 => ChaosFlavor::CrashTmp,
                _ => ChaosFlavor::TransientEio,
            },
            ChaosOp::Read => match pick % 3 {
                0 => ChaosFlavor::PartialRead,
                1 => ChaosFlavor::Eio,
                _ => ChaosFlavor::TransientEio,
            },
            // The bookkeeping ops only see transient noise from the
            // seeded sweep; persistent variants come via directives.
            ChaosOp::Remove | ChaosOp::List | ChaosOp::Sync | ChaosOp::CreateDir => {
                ChaosFlavor::TransientEio
            }
        })
    }

    /// Seeded cut point in `[1, len)` for torn writes / partial reads
    /// (always strictly short, never empty for multi-byte payloads).
    pub fn cut(&self, op: ChaosOp, seq: u64, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        1 + (self.draw(op, seq ^ 0xC47) as usize) % (len - 1)
    }
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected {what}"))
}

/// A [`Vfs`] that fails on schedule. Wraps any inner Vfs (normally
/// [`crate::vfs::StdVfs`]); every operation first consults the
/// [`ChaosPlan`], then — fault or not — leaves the filesystem in a
/// state a real kernel could have produced.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: Arc<dyn Vfs>,
    plan: ChaosPlan,
    // One sequence counter per ChaosOp lane.
    seqs: [AtomicU64; 7],
    // Tmp paths a CrashTmp fault has made sticky: their next
    // remove_file fails too, stranding the stale tmp like a crash.
    crashed: Mutex<BTreeSet<PathBuf>>,
    injected: AtomicU64,
}

impl FaultyVfs {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Vfs>, plan: ChaosPlan) -> FaultyVfs {
        FaultyVfs {
            inner,
            plan,
            seqs: std::array::from_fn(|_| AtomicU64::new(0)),
            crashed: Mutex::new(BTreeSet::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults injected so far (all flavors).
    pub fn injected_count(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn next(&self, op: ChaosOp) -> (u64, Option<ChaosFlavor>) {
        let seq = self.seqs[op.lane() as usize].fetch_add(1, Ordering::Relaxed);
        let fate = self.plan.decide(op, seq);
        if fate.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        (seq, fate)
    }
}

impl Vfs for FaultyVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (seq, fate) = self.next(ChaosOp::Read);
        match fate {
            None => self.inner.read(path),
            Some(ChaosFlavor::PartialRead) => {
                let data = self.inner.read(path)?;
                let cut = self.plan.cut(ChaosOp::Read, seq, data.len());
                Ok(data[..cut].to_vec())
            }
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient read fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "read fault")),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let (seq, fate) = self.next(ChaosOp::Write);
        match fate {
            None => self.inner.write(path, data),
            Some(ChaosFlavor::TornWrite) => {
                let cut = self.plan.cut(ChaosOp::Write, seq, data.len());
                let _ = self.inner.write(path, &data[..cut]);
                Err(injected(io::ErrorKind::Other, "torn write"))
            }
            Some(ChaosFlavor::SilentTorn) => {
                let cut = self.plan.cut(ChaosOp::Write, seq, data.len());
                self.inner.write(path, &data[..cut])
            }
            Some(ChaosFlavor::Enospc) => Err(injected(io::ErrorKind::StorageFull, "disk full")),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient write fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "write fault")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (_, fate) = self.next(ChaosOp::Rename);
        match fate {
            None => self.inner.rename(from, to),
            Some(ChaosFlavor::CrashTmp) => {
                self.crashed.lock().unwrap().insert(from.to_path_buf());
                Err(injected(io::ErrorKind::Other, "crash at commit point"))
            }
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient rename fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "rename fault")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.crashed.lock().unwrap().remove(path) {
            // The one-shot tail of CrashTmp: cleanup fails once, the
            // stale tmp survives until the next open-time sweep.
            return Err(injected(io::ErrorKind::Other, "crash before tmp cleanup"));
        }
        let (_, fate) = self.next(ChaosOp::Remove);
        match fate {
            None => self.inner.remove_file(path),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient remove fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "remove fault")),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let (_, fate) = self.next(ChaosOp::Remove);
        match fate {
            None => self.inner.remove_dir_all(path),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient remove fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "remove fault")),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let (_, fate) = self.next(ChaosOp::CreateDir);
        match fate {
            None => self.inner.create_dir_all(path),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient mkdir fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "mkdir fault")),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let (_, fate) = self.next(ChaosOp::List);
        match fate {
            None => self.inner.list(dir),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient list fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "list fault")),
        }
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let (_, fate) = self.next(ChaosOp::Sync);
        match fate {
            None => self.inner.sync_file(path),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient sync fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "sync fault")),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let (_, fate) = self.next(ChaosOp::Sync);
        match fate {
            None => self.inner.sync_dir(dir),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, "transient sync fault"))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, "sync fault")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{is_transient, StdVfs};
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rock-chaos-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_rate_shaped() {
        let plan = ChaosPlan::seeded(7, 250);
        let twin = ChaosPlan::seeded(7, 250);
        let mut hits = 0u32;
        for seq in 0..4000 {
            let a = plan.decide(ChaosOp::Write, seq);
            assert_eq!(a, twin.decide(ChaosOp::Write, seq));
            hits += a.is_some() as u32;
        }
        // 250/1000 nominal; allow generous slack, reject degenerate.
        assert!((700..=1300).contains(&hits), "hits={hits}");
        // Different lanes get different schedules.
        let writes: Vec<_> = (0..64).map(|s| plan.decide(ChaosOp::Write, s).is_some()).collect();
        let reads: Vec<_> = (0..64).map(|s| plan.decide(ChaosOp::Read, s).is_some()).collect();
        assert_ne!(writes, reads);
        // Rate 0 never fires; rate >= 1000 always fires.
        assert!((0..1000).all(|s| ChaosPlan::seeded(7, 0).decide(ChaosOp::Read, s).is_none()));
        assert!((0..1000).all(|s| ChaosPlan::seeded(7, 5000).decide(ChaosOp::Read, s).is_some()));
    }

    #[test]
    fn directives_pin_exact_operations() {
        let plan = ChaosPlan::quiet()
            .with_directive(ChaosOp::Rename, 2, ChaosFlavor::RenameFail)
            .with_directive(ChaosOp::Write, 0, ChaosFlavor::Enospc);
        assert_eq!(plan.decide(ChaosOp::Rename, 2), Some(ChaosFlavor::RenameFail));
        assert_eq!(plan.decide(ChaosOp::Rename, 1), None);
        assert_eq!(plan.decide(ChaosOp::Write, 0), Some(ChaosFlavor::Enospc));
        assert_eq!(plan.decide(ChaosOp::Write, 1), None);
    }

    #[test]
    fn cut_is_strictly_short_and_nonempty() {
        let plan = ChaosPlan::seeded(3, 1000);
        for len in [2usize, 3, 17, 4096] {
            for seq in 0..32 {
                let cut = plan.cut(ChaosOp::Write, seq, len);
                assert!((1..len).contains(&cut), "len={len} cut={cut}");
            }
        }
        assert_eq!(plan.cut(ChaosOp::Write, 0, 0), 0);
        assert_eq!(plan.cut(ChaosOp::Write, 0, 1), 0);
    }

    #[test]
    fn torn_write_leaves_a_true_prefix() {
        let dir = tmpdir("torn");
        let vfs = FaultyVfs::new(
            StdVfs::arc(),
            ChaosPlan::quiet().with_directive(ChaosOp::Write, 0, ChaosFlavor::TornWrite),
        );
        let path = dir.join("t.bin");
        let data: Vec<u8> = (0..=255).collect();
        let err = vfs.write(&path, &data).unwrap_err();
        assert!(!is_transient(&err));
        let on_disk = fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < data.len());
        assert_eq!(on_disk[..], data[..on_disk.len()]);
        // The next write is clean.
        vfs.write(&path, &data).unwrap();
        assert_eq!(fs::read(&path).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_tmp_strands_the_tmp_file_once() {
        let dir = tmpdir("crash");
        let vfs = FaultyVfs::new(
            StdVfs::arc(),
            ChaosPlan::quiet().with_directive(ChaosOp::Rename, 0, ChaosFlavor::CrashTmp),
        );
        let tmp = dir.join(".x.sub.tmp");
        vfs.write(&tmp, b"half-finished").unwrap();
        assert!(vfs.rename(&tmp, &dir.join("x.sub")).is_err());
        // Cleanup fails once — exactly the crash window.
        assert!(vfs.remove_file(&tmp).is_err());
        assert!(tmp.exists());
        // A later sweep (post-"reboot") can remove it.
        vfs.remove_file(&tmp).unwrap();
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_read_and_transient_flavors() {
        let dir = tmpdir("partial");
        let vfs = FaultyVfs::new(
            StdVfs::arc(),
            ChaosPlan::quiet()
                .with_directive(ChaosOp::Read, 0, ChaosFlavor::PartialRead)
                .with_directive(ChaosOp::Read, 1, ChaosFlavor::TransientEio),
        );
        let path = dir.join("p.bin");
        fs::write(&path, [9u8; 64]).unwrap();
        let short = vfs.read(&path).unwrap();
        assert!(!short.is_empty() && short.len() < 64);
        let err = vfs.read(&path).unwrap_err();
        assert!(is_transient(&err), "{err}");
        assert_eq!(vfs.read(&path).unwrap().len(), 64);
        assert_eq!(vfs.injected_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Seeded, clock-free storage fault injection.
//!
//! [`FaultyVfs`] wraps a real [`Vfs`] and makes it lie on schedule:
//! torn writes, ENOSPC, transient EIO, rename failures, partial reads,
//! and crash-shaped stale tmp files. It counts its calls per
//! [`ChaosOp`] class and asks a [`FaultPlan`] about each one: the
//! plan's storage lanes decide, from a seed, a per-mille rate and any
//! pinned `fail_storage` directives, which call faults and how, so a
//! given seed produces the same fault schedule on every run and at
//! every thread count, with no clocks and no global RNG state. Handing
//! the same plan to a `Supervisor` drives its compute faults too.
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

use rock_core::{ChaosFlavor, ChaosOp, FaultPlan};

use crate::vfs::Vfs;

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected {what}"))
}

/// A [`Vfs`] that fails on schedule. Wraps any inner Vfs (normally
/// [`crate::vfs::StdVfs`]); every operation first consults the
/// [`FaultPlan`], then — fault or not — leaves the filesystem in a
/// state a real kernel could have produced.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: Arc<dyn Vfs>,
    plan: Arc<FaultPlan>,
    // One sequence counter per ChaosOp lane.
    seqs: [AtomicU64; 7],
    // Tmp paths a CrashTmp fault has made sticky: their next
    // remove_file fails too, stranding the stale tmp like a crash.
    crashed: Mutex<BTreeSet<PathBuf>>,
}

impl FaultyVfs {
    /// Wraps `inner`, faulting where `plan`'s storage lanes say.
    pub fn new(inner: Arc<dyn Vfs>, plan: Arc<FaultPlan>) -> FaultyVfs {
        FaultyVfs {
            inner,
            plan,
            seqs: std::array::from_fn(|_| AtomicU64::new(0)),
            crashed: Mutex::new(BTreeSet::new()),
        }
    }

    fn next(&self, op: ChaosOp) -> (u64, Option<ChaosFlavor>) {
        let seq = self.seqs[op as usize].fetch_add(1, Ordering::Relaxed);
        (seq, self.plan.storage_fault(op, seq))
    }

    /// The one fault path of the bookkeeping ops: run for real, or fail
    /// transiently, or fail persistently.
    fn bookkeeping<T>(
        &self,
        op: ChaosOp,
        what: &str,
        run: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        match self.next(op).1 {
            None => run(),
            Some(ChaosFlavor::TransientEio) => {
                Err(injected(io::ErrorKind::Interrupted, &format!("transient {what} fault")))
            }
            Some(_) => Err(injected(io::ErrorKind::Other, &format!("{what} fault"))),
        }
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
        self.bookkeeping(ChaosOp::Remove, "remove", || self.inner.remove_file(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.bookkeeping(ChaosOp::Remove, "remove", || self.inner.remove_dir_all(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.bookkeeping(ChaosOp::CreateDir, "mkdir", || self.inner.create_dir_all(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.bookkeeping(ChaosOp::List, "list", || self.inner.list(dir))
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.bookkeeping(ChaosOp::Sync, "sync", || self.inner.sync_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.bookkeeping(ChaosOp::Sync, "sync", || self.inner.sync_dir(dir))
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
    fn torn_write_leaves_a_true_prefix() {
        let dir = tmpdir("torn");
        let vfs = FaultyVfs::new(
            StdVfs::arc(),
            Arc::new(FaultPlan::new().fail_storage(ChaosOp::Write, 0, ChaosFlavor::TornWrite)),
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
            Arc::new(FaultPlan::new().fail_storage(ChaosOp::Rename, 0, ChaosFlavor::CrashTmp)),
        );
        let tmp = dir.join(".x.pack.tmp");
        vfs.write(&tmp, b"half-finished").unwrap();
        assert!(vfs.rename(&tmp, &dir.join("x.pack")).is_err());
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
            Arc::new(
                FaultPlan::new()
                    .fail_storage(ChaosOp::Read, 0, ChaosFlavor::PartialRead)
                    .fail_storage(ChaosOp::Read, 1, ChaosFlavor::TransientEio),
            ),
        );
        let path = dir.join("p.bin");
        fs::write(&path, [9u8; 64]).unwrap();
        let short = vfs.read(&path).unwrap();
        assert!(!short.is_empty() && short.len() < 64);
        let err = vfs.read(&path).unwrap_err();
        assert!(is_transient(&err), "{err}");
        assert_eq!(vfs.read(&path).unwrap().len(), 64);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Storage abstraction under the artifact store.
//!
//! [`Vfs`] is the narrow filesystem surface [`crate::ArtifactStore`]
//! actually uses: whole-file read/write, rename-commit, directory
//! listing, removal, and explicit durability syncs. Production runs use
//! [`StdVfs`] (plain `std::fs`); chaos tests swap in
//! [`crate::chaos::FaultyVfs`], which lies where the storage lanes of a
//! `rock_core::FaultPlan` say; the
//! same seam is what later lets the daemon swap storage backends (and
//! the WASM build stub the filesystem out entirely, per ROADMAP).
//!
//! Error discipline: implementations return plain [`io::Error`]s.
//! Callers classify them with [`is_transient`] — transient faults are
//! worth a bounded retry, anything else (ENOSPC, permission, corruption
//! upstream) is persistent and must degrade gracefully instead.

use std::fmt::Debug;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The filesystem surface the artifact store runs on.
///
/// Implementations must be thread-safe: one `Arc<dyn Vfs>` is shared by
/// every store clone across the batch driver and the serve worker pool.
pub trait Vfs: Send + Sync + Debug {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `data` to `path`, creating or truncating it.
    ///
    /// Not atomic — commit protocol is write-to-tmp then [`Vfs::rename`].
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (the commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Removes `path` and everything under it.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries directly under `dir`, as full paths, sorted by
    /// name so every traversal is deterministic.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// `true` if `path` names a directory (false for missing paths).
    fn is_dir(&self, path: &Path) -> bool;

    /// Flushes the file at `path` to stable storage (fsync).
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes the directory at `dir` to stable storage, making a
    /// preceding rename survive power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: plain `std::fs` against the real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl StdVfs {
    /// A shareable handle, ready to hand to [`crate::ArtifactStore`].
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        fs::write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        entries.sort();
        Ok(entries)
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On unix a directory opens read-only like any file and
        // sync_all is the directory fsync that commits a rename.
        fs::File::open(dir)?.sync_all()
    }
}

/// `true` for faults worth a bounded retry: the kernel (or an injected
/// chaos plan) says "try again", not "this disk is broken".
///
/// Everything else — ENOSPC, permission, unexpected EOF, corruption —
/// is persistent: retries would spin, so callers degrade instead.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rock-vfs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips_and_lists_sorted() {
        let dir = tmpdir("roundtrip");
        let vfs = StdVfs;
        vfs.write(&dir.join("b.txt"), b"bee").unwrap();
        vfs.write(&dir.join("a.txt"), b"ay").unwrap();
        assert_eq!(vfs.read(&dir.join("b.txt")).unwrap(), b"bee");
        let names: Vec<String> = vfs
            .list(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.txt", "b.txt"]);
        vfs.rename(&dir.join("a.txt"), &dir.join("c.txt")).unwrap();
        assert!(vfs.read(&dir.join("a.txt")).is_err());
        assert_eq!(vfs.read(&dir.join("c.txt")).unwrap(), b"ay");
        vfs.remove_file(&dir.join("c.txt")).unwrap();
        assert!(vfs.is_dir(&dir));
        assert!(!vfs.is_dir(&dir.join("b.txt")));
        vfs.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn std_vfs_syncs_files_and_directories() {
        let dir = tmpdir("sync");
        let vfs = StdVfs;
        let file = dir.join("x.bin");
        vfs.write(&file, &[1, 2, 3]).unwrap();
        vfs.sync_file(&file).unwrap();
        vfs.sync_dir(&dir).unwrap();
        // Syncing a missing file reports the error instead of lying.
        assert!(vfs.sync_file(&dir.join("missing")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_classification() {
        for kind in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut]
        {
            assert!(is_transient(&io::Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::StorageFull,
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::Other,
        ] {
            assert!(!is_transient(&io::Error::new(kind, "x")), "{kind:?}");
        }
    }
}

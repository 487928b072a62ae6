//! An in-memory [`Vfs`] for every artifact store the benchmark opens.
//!
//! The artifact store writes one small file per checkpoint and
//! sub-artifact. On a shared virtual disk the cost of that metadata
//! traffic depends on what ran before (deleting a previous run's files
//! made the same 2006-file flush take 84 ms in one run and 1.2 s in a
//! later one), so a disk-backed store would measure the device's
//! history rather than the program. Behind the store's own `Vfs` seam
//! the program runs unchanged — framing, checksums, listings, the
//! write-then-rename commit — with the device taken out.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rock_supervisor::{ArtifactStore, Vfs};

/// Paths to file contents; `None` marks a directory.
#[derive(Debug, Default)]
pub struct MemVfs {
    entries: Mutex<BTreeMap<PathBuf, Option<Arc<[u8]>>>>,
}

/// Where every in-memory store is rooted.
pub const STORE_ROOT: &str = "store";

/// A store on `vfs`, rooted at [`STORE_ROOT`].
pub fn store_on(vfs: Arc<dyn Vfs>) -> ArtifactStore {
    ArtifactStore::open_with(STORE_ROOT, vfs, false).expect("an in-memory store always opens")
}

/// A store on a fresh in-memory filesystem.
pub fn fresh_store() -> ArtifactStore {
    store_on(Arc::new(MemVfs::default()))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{} not found", path.display()))
}

impl MemVfs {
    /// Bytes held in files right now.
    pub fn file_bytes(&self) -> usize {
        self.lock().values().flatten().map(|data| data.len()).sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Option<Arc<[u8]>>>> {
        self.entries.lock().expect("in-memory filesystem poisoned")
    }
}

fn parent_is_dir(entries: &BTreeMap<PathBuf, Option<Arc<[u8]>>>, path: &Path) -> bool {
    match path.parent() {
        None => true,
        Some(p) if p.as_os_str().is_empty() => true,
        Some(p) => matches!(entries.get(p), Some(None)),
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.lock().get(path) {
            Some(Some(data)) => Ok(data.to_vec()),
            _ => Err(not_found(path)),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut entries = self.lock();
        if !parent_is_dir(&entries, path) || matches!(entries.get(path), Some(None)) {
            return Err(not_found(path));
        }
        entries.insert(path.to_path_buf(), Some(data.into()));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut entries = self.lock();
        if !parent_is_dir(&entries, to) {
            return Err(not_found(to));
        }
        match entries.remove(from) {
            Some(Some(data)) => {
                entries.insert(to.to_path_buf(), Some(data));
                Ok(())
            }
            Some(None) => {
                entries.insert(from.to_path_buf(), None);
                Err(io::Error::new(io::ErrorKind::Unsupported, "directory rename"))
            }
            None => Err(not_found(from)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut entries = self.lock();
        match entries.get(path) {
            Some(Some(_)) => {
                entries.remove(path);
                Ok(())
            }
            _ => Err(not_found(path)),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut entries = self.lock();
        if !matches!(entries.get(path), Some(None)) {
            return Err(not_found(path));
        }
        entries.retain(|p, _| !p.starts_with(path));
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut entries = self.lock();
        for dir in path.ancestors().filter(|a| !a.as_os_str().is_empty()) {
            match entries.get(dir) {
                Some(Some(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "a file is in the way",
                    ))
                }
                Some(None) => break,
                None => {
                    entries.insert(dir.to_path_buf(), None);
                }
            }
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = self.lock();
        if !matches!(entries.get(dir), Some(None)) {
            return Err(not_found(dir));
        }
        Ok(entries
            .range(dir.to_path_buf()..)
            .skip(1)
            .take_while(|(p, _)| p.starts_with(dir))
            .filter(|(p, _)| p.parent() == Some(dir))
            .map(|(p, _)| p.clone())
            .collect())
    }

    fn is_dir(&self, path: &Path) -> bool {
        matches!(self.lock().get(path), Some(None))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.lock().get(path) {
            Some(Some(_)) => Ok(()),
            _ => Err(not_found(path)),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.lock().get(dir) {
            Some(None) => Ok(()),
            _ => Err(not_found(dir)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_directory_tree() {
        let vfs = MemVfs::default();
        let root = Path::new("s");
        assert!(vfs.write(&root.join("a"), b"x").is_err(), "parent must exist");
        vfs.create_dir_all(&root.join("d/e")).unwrap();
        vfs.write(&root.join("d/.t.tmp"), b"xy").unwrap();
        vfs.rename(&root.join("d/.t.tmp"), &root.join("d/t")).unwrap();
        vfs.write(&root.join("b"), b"z").unwrap();
        assert_eq!(vfs.read(&root.join("d/t")).unwrap(), b"xy");
        let names = |d: &str| vfs.list(&root.join(d)).unwrap();
        assert_eq!(names(""), [root.join("b"), root.join("d")]);
        assert_eq!(names("d"), [root.join("d/e"), root.join("d/t")]);
        assert!(vfs.is_dir(&root.join("d/e")) && !vfs.is_dir(&root.join("b")));
        vfs.remove_file(&root.join("b")).unwrap();
        vfs.remove_dir_all(&root.join("d")).unwrap();
        assert!(names("").is_empty());
        assert!(vfs.read(&root.join("d/t")).is_err());
    }
}

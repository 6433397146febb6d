//! The `std::fs` backend.

use std::io;
use std::path::{Path, PathBuf};

use crate::{FileStat, Vfs};

/// Plain `std::fs` operations — the production backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn stat(&self, path: &Path) -> io::Result<FileStat> {
        Ok(FileStat::from_metadata(&std::fs::metadata(path)?))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        // Every entry is `path` joined with its file name, so comparing
        // whole paths as bytes compares the names — the order a
        // component-wise `PathBuf` sort gives, without walking the
        // components on every comparison.
        entries.sort_unstable_by(|a, b| a.as_os_str().cmp(b.as_os_str()));
        Ok(entries)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing its fd makes renames
        // and creations inside it durable on POSIX filesystems.
        std::fs::File::open(path)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spec_vfs_real_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn read_write_rename_remove() {
        let dir = tmp_dir("ops");
        let vfs = RealVfs;
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        vfs.write(&a, b"abc").unwrap();
        let stat = vfs.stat(&a).unwrap();
        assert_eq!(stat.len, 3);
        assert_eq!(vfs.read_verified_stat(&a).unwrap(), (b"abc".to_vec(), stat));
        assert_eq!(vfs.read_verified(&a).unwrap(), b"abc");
        vfs.sync_file(&a).unwrap();
        vfs.rename(&a, &b).unwrap();
        assert_eq!(vfs.read_to_string(&b).unwrap(), "abc");
        vfs.sync_dir(&dir).unwrap();
        vfs.remove_file(&b).unwrap();
        assert_eq!(
            vfs.read(&b).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_dir_is_sorted() {
        let dir = tmp_dir("sorted");
        let vfs = RealVfs;
        for name in ["c.txt", "a.txt", "b.txt"] {
            vfs.write(&dir.join(name), b"x").unwrap();
        }
        let names: Vec<String> = vfs
            .read_dir(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.txt", "b.txt", "c.txt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_dir_name_order_is_path_order() {
        // Mixed case, digits, punctuation and non-ASCII names: sorting by
        // file-name bytes must give exactly the order sorting the full
        // paths gives.
        let dir = tmp_dir("name_order");
        let vfs = RealVfs;
        let names = [
            "b.txt",
            "B.txt",
            "a10.txt",
            "a9.txt",
            "a1.txt",
            "Zeta.txt",
            "_x.txt",
            "-y.txt",
            "é.txt",
            "e.txt",
            "ß.txt",
            "日本.txt",
            "a.TXT",
            "a b.txt",
            "10.txt",
            "2.txt",
        ];
        for name in names {
            vfs.write(&dir.join(name), b"x").unwrap();
        }
        let listed = vfs.read_dir(&dir).unwrap();
        let mut by_path = listed.clone();
        by_path.sort();
        assert_eq!(listed, by_path);
        assert_eq!(listed.len(), names.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_sees_a_same_size_replace_that_keeps_the_mtime() {
        let dir = tmp_dir("replace");
        let vfs = RealVfs;
        let (p, tmp) = (dir.join("f"), dir.join("f.tmp"));
        vfs.write(&p, b"abc").unwrap();
        let before = vfs.stat(&p).unwrap();
        vfs.write(&tmp, b"xyz").unwrap();
        let mtime = std::time::UNIX_EPOCH + std::time::Duration::from_nanos(before.mtime_ns as u64);
        std::fs::File::options()
            .write(true)
            .open(&tmp)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        vfs.rename(&tmp, &p).unwrap();
        let after = vfs.stat(&p).unwrap();
        assert_eq!((after.len, after.mtime_ns), (before.len, before.mtime_ns));
        if cfg!(unix) {
            assert_ne!(after, before, "the inode tells the replace apart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_read_to_string_is_invalid_data() {
        let dir = tmp_dir("utf8");
        let vfs = RealVfs;
        let p = dir.join("bin");
        vfs.write(&p, &[0xFF, 0xFE, 0x00]).unwrap();
        assert_eq!(
            vfs.read_to_string(&p).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

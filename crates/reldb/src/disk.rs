//! Page-granular persistent storage.
//!
//! [`PageStore`] abstracts the backing medium; the engine ships a
//! file-backed store for durability and an in-memory store for tests and for
//! the privacy layer's default configuration (the violation model is
//! analytical and usually does not need durability).
//!
//! It also holds the generation pointer protocol ([`read_current`],
//! [`publish_current`]) that both the database checkpoint and the delta
//! log's snapshot rotation publish through.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::error::{DbError, DbResult};
use crate::page::PAGE_SIZE;

/// Fsync the parent directory of `path`, making a file creation, rename, or
/// truncation durable across power loss. POSIX only guarantees a new or
/// renamed directory entry survives once the *directory* itself is synced;
/// syncing just the file is not enough. Platforms whose directories cannot
/// be opened for sync are tolerated (the open itself failing is ignored).
pub fn sync_dir(path: impl AsRef<Path>) -> DbResult<()> {
    let dir = match path.as_ref().parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(handle) = File::open(dir) {
        handle.sync_all()?;
    }
    Ok(())
}

/// Path of the `CURRENT` generation pointer file inside `dir`.
pub fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// The generation `CURRENT` points at, or `None` when the file is absent
/// (nothing was ever published in `dir`).
pub fn read_current(dir: &Path) -> DbResult<Option<u64>> {
    let path = current_path(dir);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)?;
    let generation = text
        .trim()
        .parse::<u64>()
        .map_err(|_| DbError::Corruption(format!("CURRENT holds {text:?}, not a generation")))?;
    Ok(Some(generation))
}

/// Atomically point `CURRENT` at `generation`: write `CURRENT.tmp`, fsync
/// it, rename over `CURRENT`, fsync the directory. The rename is the
/// commit point: a crash on either side of it leaves one whole generation
/// published.
pub fn publish_current(dir: &Path, generation: u64) -> DbResult<()> {
    let tmp = dir.join("CURRENT.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(generation.to_string().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, current_path(dir))?;
    sync_dir(current_path(dir))
}

/// A medium that stores fixed-size pages addressed by page id.
pub trait PageStore: Send {
    /// Read page `page_id` into `buf`.
    fn read_page(&mut self, page_id: u64, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()>;
    /// Write `buf` as page `page_id`, extending the medium if needed.
    fn write_page(&mut self, page_id: u64, buf: &[u8; PAGE_SIZE]) -> DbResult<()>;
    /// Number of pages currently stored.
    fn num_pages(&self) -> u64;
    /// Durably sync all written pages.
    fn sync(&mut self) -> DbResult<()>;
}

/// Heap-allocated page storage. Fast, non-durable.
#[derive(Default)]
pub struct MemStore {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl PageStore for MemStore {
    fn read_page(&mut self, page_id: u64, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        let page = self
            .pages
            .get(page_id as usize)
            .ok_or_else(|| DbError::Corruption(format!("read of unallocated page {page_id}")))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&mut self, page_id: u64, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        let idx = page_id as usize;
        while self.pages.len() <= idx {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        self.pages[idx].copy_from_slice(buf);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> DbResult<()> {
        Ok(())
    }
}

/// File-backed page storage. Pages live at `page_id * PAGE_SIZE`.
pub struct FileStore {
    file: File,
    num_pages: u64,
}

impl FileStore {
    /// Open (or create) the page file at `path`. When the file is newly
    /// created, the parent directory is fsynced so the creation itself is
    /// durable.
    pub fn open(path: impl AsRef<Path>) -> DbResult<FileStore> {
        let path = path.as_ref();
        let created = !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if created {
            sync_dir(path)?;
        }
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DbError::Corruption(format!(
                "page file length {len} is not a multiple of the page size"
            )));
        }
        Ok(FileStore {
            file,
            num_pages: len / PAGE_SIZE as u64,
        })
    }
}

impl PageStore for FileStore {
    fn read_page(&mut self, page_id: u64, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        if page_id >= self.num_pages {
            return Err(DbError::Corruption(format!(
                "read of unallocated page {page_id} (file has {})",
                self.num_pages
            )));
        }
        // A positioned read: one syscall per page miss.
        self.file.read_exact_at(buf, page_id * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&mut self, page_id: u64, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        self.file
            .seek(SeekFrom::Start(page_id * PAGE_SIZE as u64))?;
        self.file.write_all(buf)?;
        self.num_pages = self.num_pages.max(page_id + 1);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn sync(&mut self) -> DbResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_store(store: &mut dyn PageStore) {
        let mut a = [0u8; PAGE_SIZE];
        a[0] = 0xaa;
        a[PAGE_SIZE - 1] = 0xbb;
        store.write_page(0, &a).unwrap();
        // Sparse write: page 3 skips 1 and 2.
        let mut c = [0u8; PAGE_SIZE];
        c[100] = 7;
        store.write_page(3, &c).unwrap();
        assert_eq!(store.num_pages(), 4);

        let mut buf = [1u8; PAGE_SIZE];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xaa);
        assert_eq!(buf[PAGE_SIZE - 1], 0xbb);
        store.read_page(3, &mut buf).unwrap();
        assert_eq!(buf[100], 7);
        // Overwrite.
        let z = [9u8; PAGE_SIZE];
        store.write_page(0, &z).unwrap();
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, z);
        // Out-of-range read errors.
        assert!(store.read_page(99, &mut buf).is_err());
        store.sync().unwrap();
    }

    #[test]
    fn mem_store_semantics() {
        check_store(&mut MemStore::new());
    }

    #[test]
    fn file_store_semantics_and_reopen() {
        let dir = std::env::temp_dir().join(format!("qpv-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = FileStore::open(&path).unwrap();
            check_store(&mut store);
        }
        // Reopen: contents persist.
        let mut store = FileStore::open(&path).unwrap();
        assert_eq!(store.num_pages(), 4);
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; PAGE_SIZE]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_rejects_torn_files() {
        let dir = std::env::temp_dir().join(format!("qpv-disk-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(DbError::Corruption(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}

//! The page file and its single-owner page writer.
//!
//! [`PageFile`] is the on-disk page store (`pages.db`): a flat array of
//! [`PAGE_SIZE`] pages addressed by id.
//! [`PageStore`] is the only way the durability layer touches it. Nothing
//! is cached: tables are fully memory-resident, so table bytes cross the
//! disk boundary at exactly two moments — every referenced page is
//! [`read`](PageStore::read) once when the database opens, and every page
//! of a dirty table is [`written`](PageStore::write) once per checkpoint
//! — through page buffers the caller owns. Pages are sealed (checksummed)
//! on every write and verified on every read.
//!
//! Page allocation is shadow-paging-aware: the durability layer feeds the
//! store a *free list* of page ids referenced by no current checkpoint;
//! [`allocate`](PageStore::allocate) pops from it before extending the
//! file, so a checkpoint in progress can never overwrite a page the
//! last durable catalog still points at.

use std::io::SeekFrom;
use std::path::{Path, PathBuf};

use crate::error::EngineError;
use crate::storage::io::{self, FileHandle, OpenMode};
use crate::storage::page::{self, PAGE_SIZE};

fn io_err(op: &str, path: &Path, e: std::io::Error) -> EngineError {
    EngineError::execution(format!(
        "page file I/O error ({op}, {}): {e}",
        path.display()
    ))
}

/// The on-disk page store: a flat file of fixed-size pages.
#[derive(Debug)]
pub struct PageFile {
    file: FileHandle,
    path: PathBuf,
    num_pages: u64,
}

impl PageFile {
    /// Open (creating if missing) the page file at `path`. A trailing
    /// partial page is a torn tail from a crashed shadow write — the
    /// published checkpoint never references past-the-end pages, so it
    /// is truncated away rather than treated as corruption (which would
    /// wedge recovery on an otherwise intact checkpoint).
    pub fn open(path: impl Into<PathBuf>) -> Result<PageFile, EngineError> {
        let path = path.into();
        let mut file =
            io::open(&path, OpenMode::ReadWrite).map_err(|e| io_err("open", &path, e))?;
        let mut len = file.len().map_err(|e| io_err("stat", &path, e))?;
        if len % PAGE_SIZE as u64 != 0 {
            len -= len % PAGE_SIZE as u64;
            file.set_len(len)
                .map_err(|e| io_err("truncate", &path, e))?;
        }
        Ok(PageFile {
            file,
            path,
            num_pages: len / PAGE_SIZE as u64,
        })
    }

    /// Number of pages the file currently holds.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Reserve the next page id past the end of the file (the file grows
    /// when the page is first written).
    fn extend(&mut self) -> u64 {
        let id = self.num_pages;
        self.num_pages += 1;
        id
    }

    fn read_page(&mut self, id: u64, buf: &mut [u8]) -> Result<(), EngineError> {
        self.file
            .seek(SeekFrom::Start(id * PAGE_SIZE as u64))
            .and_then(|_| self.file.read_exact(buf))
            .map_err(|e| io_err("read", &self.path, e))
    }

    fn write_page(&mut self, id: u64, buf: &[u8]) -> Result<(), EngineError> {
        self.file
            .seek(SeekFrom::Start(id * PAGE_SIZE as u64))
            .and_then(|_| self.file.write_all(buf))
            .map_err(|e| io_err("write", &self.path, e))
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))
    }
}

/// Cumulative page I/O counters of one [`PageStore`]. The name and the
/// two zero fields date from the buffer pool this store replaced; the
/// benchmark reads all four, so they stay until it is re-based.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Always 0: nothing is cached, so no read is served from memory.
    pub hits: u64,
    /// Pages read from disk (each referenced page once, at open).
    pub misses: u64,
    /// Always 0: there are no frames to evict.
    pub evictions: u64,
    /// Pages written to disk (each page of a dirty table once per
    /// checkpoint).
    pub pages_written: u64,
}

/// The single owner of one [`PageFile`]: id allocation plus checksummed
/// whole-page reads and writes through caller-owned buffers.
#[derive(Debug)]
pub struct PageStore {
    file: PageFile,
    free: Vec<u64>,
    stats: BufferPoolStats,
}

impl PageStore {
    /// A store over `file` with an empty free list.
    pub fn new(file: PageFile) -> PageStore {
        PageStore {
            file,
            free: Vec::new(),
            stats: BufferPoolStats::default(),
        }
    }

    /// Reserve a page id: the shadow-paging free list first, then file
    /// growth. The page exists on disk once it is [`write`](Self::write)n.
    pub fn allocate(&mut self) -> u64 {
        match self.free.pop() {
            Some(id) => id,
            None => self.file.extend(),
        }
    }

    /// Seal `page` (stamp its checksum) and write it as page `id`.
    pub fn write(&mut self, id: u64, page: &mut [u8]) -> Result<(), EngineError> {
        page::seal(page);
        self.file.write_page(id, page)?;
        self.stats.pages_written += 1;
        Ok(())
    }

    /// Read page `id` into `page` and verify its magic and checksum.
    pub fn read(&mut self, id: u64, page: &mut [u8]) -> Result<(), EngineError> {
        if id >= self.file.num_pages() {
            return Err(EngineError::execution(format!(
                "page {id} is beyond the end of the page file"
            )));
        }
        self.file.read_page(id, page)?;
        page::verify(page, id)?;
        self.stats.misses += 1;
        Ok(())
    }

    /// Replace the allocator's free list (computed by the durability
    /// layer as "pages referenced by no durable catalog").
    pub fn set_free_list(&mut self, free: Vec<u64>) {
        self.free = free;
    }

    /// fsync the page file.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.file.sync()
    }

    /// Number of pages in the backing file.
    pub fn num_pages(&self) -> u64 {
        self.file.num_pages()
    }

    /// Cumulative page I/O counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::page::init_heap;

    fn temp_store(name: &str) -> (PageStore, PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "openivm-pagefile-test-{}-{}.db",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_file(&path);
        let store = PageStore::new(PageFile::open(&path).unwrap());
        (store, path)
    }

    /// Allocate one page, write an empty heap page to it, fsync.
    fn write_one_page(store: &mut PageStore) -> u64 {
        let mut page = vec![0u8; PAGE_SIZE];
        init_heap(&mut page, 1);
        let id = store.allocate();
        store.write(id, &mut page).unwrap();
        store.sync().unwrap();
        id
    }

    #[test]
    fn reading_beyond_eof_and_torn_pages_error_cleanly() {
        let (mut store, path) = temp_store("torn");
        let id = write_one_page(&mut store);
        let mut page = vec![0u8; PAGE_SIZE];
        assert!(store.read(99, &mut page).is_err(), "page beyond EOF");
        // Corrupt one byte on disk; a fresh store must reject the page.
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1000] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = PageStore::new(PageFile::open(&path).unwrap());
        let err = store.read(id, &mut page).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_trailing_partial_page_is_truncated_on_open() {
        let (mut store, path) = temp_store("tail");
        let id = write_one_page(&mut store);
        drop(store);
        // A crashed shadow write leaves a partial page past the end.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; PAGE_SIZE / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let file = PageFile::open(&path).unwrap();
        assert_eq!(file.num_pages(), 1, "torn tail must be dropped");
        let mut store = PageStore::new(file);
        store.read(id, &mut vec![0u8; PAGE_SIZE]).unwrap();
        drop(store);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            PAGE_SIZE as u64,
            "open must truncate the torn tail on disk"
        );
        let _ = std::fs::remove_file(path);
    }
}

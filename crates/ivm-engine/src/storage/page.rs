//! The unit table-file I/O is counted in.
//!
//! Tables at rest are files of checksummed records
//! ([`crate::storage::durability`]), not pages. [`PAGE_SIZE`] and
//! [`BufferPoolStats`] are what the benchmark reads of the page store
//! those files replaced, so they stay, counting bytes in pages.

/// The unit [`BufferPoolStats`] counts table-file bytes in.
pub const PAGE_SIZE: usize = 8192;

/// Cumulative table-file I/O of one durable database, in [`PAGE_SIZE`]
/// units (each file rounded up). The name and the two zero fields date
/// from a buffer pool; the benchmark reads all four, so they stay until
/// it is re-based.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Always 0: nothing is cached, so no read is served from memory.
    pub hits: u64,
    /// Table-file pages read (each file `catalog.meta` names once, at
    /// open).
    pub misses: u64,
    /// Always 0: there are no frames to evict.
    pub evictions: u64,
    /// Table-file pages written (each dirty table's file once per
    /// checkpoint).
    pub pages_written: u64,
}

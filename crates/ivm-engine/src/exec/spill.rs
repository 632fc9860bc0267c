//! Memory-budgeted spill-to-disk for hash operators.
//!
//! The engine's pipeline breakers (join builds, group tables — DISTINCT
//! and set-semantics set operations are grouped aggregates —, and the
//! EXCEPT/INTERSECT multiplicity maps) used to assume their state fits in RAM; any
//! build side or GROUP BY larger than memory aborted the process. This
//! module adds the out-of-core machinery they share:
//!
//! - [`MemoryBudget`]: a cheaply-clonable accounting handle (one per
//!   [`crate::session::Database`]) holding the byte limit, the running
//!   usage counter, the spill directory, and the spill/rehydrate
//!   counters. Unbounded budgets (`limit = usize::MAX`) never spill.
//! - `SpillWriter` / `SpillFile`: temp-file lifecycle around the
//!   columnar frame codec of [`crate::storage::frame`]. Frames are
//!   encoded on the execution thread but *written* by a dedicated
//!   background writer thread (one per budgeted session) behind a
//!   bounded queue, so eviction overlaps with fold/probe work and
//!   backpressures instead of buffering unboundedly. Write errors
//!   (ENOSPC and friends) surface as clean [`EngineError`]s at the next
//!   enqueue or at `SpillWriter::finish`, which drains the queue and
//!   fsyncs. Files are created in the budget's spill directory and
//!   removed when the `SpillFile` handle drops — spill files never
//!   outlive the query.
//! - `PartitionedSpiller`: the one bucket store. Tuples carry two `u64`
//!   tags and are kept in buckets that buffer in memory while the budget
//!   allows; when it overflows, the largest resident bucket is flushed
//!   to its spill file and its later tuples pass through a small
//!   bounded write buffer. As the radix accumulator, the tags are the
//!   key hash and a global sequence number and a tuple's bucket is one
//!   of `NUM_PARTITIONS`, picked by a high-bit slice of the hash
//!   (rotated per recursion level, so re-partitioning a partition that
//!   still does not fit uses a *fresh* bit range). As a breaker's
//!   output runs, the tags are the emission key and each fitting
//!   partition appends one key-ascending run — no materialize-and-sort
//!   of the full result.
//! - `SpillMerge`: the one k-way merge over finished buckets, holding
//!   at most one decoded frame per bucket resident. By sequence it
//!   merges the per-worker slices of a partition (parallel execution
//!   produces one spiller per worker) back into one serial-order
//!   stream; by key it merges a breaker's output runs into its output.
//!
//! A breaker's input reaches a spiller one way: under a bounded budget
//! the breaker asks its input for partitions (`Input::partitions`). An
//! operator tree is drained into one spiller; the morsel scheduler's
//! child streams every worker into its own.
//!
//! The sequence tags are what make spilling invisible: consumers fold or
//! join partition-at-a-time (any order) and use the tags to restore the
//! exact serial output order, so a spilled run is row-identical —
//! values *and* order — to the in-memory run, at any parallelism.
//! `tests/prop_spill_agree.rs` holds that equivalence under random
//! workloads.
//!
//! **I/O bound.** Every spilled row is written once and read back once
//! per partition level: a bucket file is sealed once and read by one
//! cursor, a partition that does not fit is re-partitioned by one
//! sequential pass (one read of the level above, one write at the level
//! below, at most `MAX_SPILL_DEPTH - 1` times), and an output run is
//! written once and merged once. So `SpillStats::rehydrated_rows`
//! equals `SpillStats::spilled_rows` for every query drained to the end
//! (`tests/prop_spill_agree.rs` asserts it), and a breaker with `n`
//! input rows and `m` output rows writes at most `n · MAX_SPILL_DEPTH +
//! m` rows; memory beyond the budget is one write buffer per spilled
//! bucket, one frame per merged cursor and the writer queue's
//! `SPILL_QUEUE_FRAMES` frames.
//!
//! The hash bit layout composes with the rest of the engine: spill
//! partitions use rotated *high* bits (levels 0..4 cover bits 48..64),
//! the flat tables index with *low* bits, and tag bytes come from the
//! middle — one hash per key, everywhere.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::EngineError;
use crate::exec::aggregate::AggSpec;
use crate::exec::batch::RowBatch;
use crate::exec::hash::{hash_batch_keys, hash_batch_rows};
use crate::exec::{BoxedOperator, Row};
use crate::storage::frame;
use crate::storage::io::{self as sio, FileHandle, OpenMode};
use crate::value::Value;

/// Radix bits per spill level: 16 partitions per level.
pub(crate) const PART_BITS: u32 = 4;

/// Partitions per spiller (one radix pass).
pub(crate) const NUM_PARTITIONS: usize = 1 << PART_BITS;

/// Deepest recursive re-partition level. Four levels consume hash bits
/// 48..64; beyond that a partition is processed in memory regardless
/// (its rows share 16 hash bits — almost certainly one heavy key, which
/// no amount of hash partitioning can split).
pub(crate) const MAX_SPILL_DEPTH: u32 = 4;

/// Rows per spill write-buffer flush (bounds the per-partition buffer
/// independently of the budget — even a 1-byte budget keeps at most this
/// many rows buffered per spilled partition).
const WRITE_BUFFER_ROWS: usize = 256;

/// Fixed per-tuple accounting overhead on top of the row payload (the
/// `(hash, seq)` tags and vector slack).
const TUPLE_OVERHEAD: usize = 16;

/// Encoded frames the background writer queue holds before enqueueing
/// execution threads block (backpressure). Bounds the memory the queue
/// itself can pin to a handful of frames.
const SPILL_QUEUE_FRAMES: usize = 8;

/// Partition index of `hash` at recursion level `bit_offset / PART_BITS`:
/// the top [`PART_BITS`] bits after rotating the level's range in.
#[inline]
pub(crate) fn spill_partition_of(hash: u64, bit_offset: u32) -> usize {
    (hash.rotate_left(bit_offset) >> (64 - PART_BITS)) as usize
}

/// Monotone suffix for spill file names (process-wide).
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, Default)]
struct StatCells {
    spilled_partitions: AtomicU64,
    spilled_rows: AtomicU64,
    spilled_bytes: AtomicU64,
    spill_files: AtomicU64,
    rehydrated_partitions: AtomicU64,
    rehydrated_rows: AtomicU64,
    bytes_read: AtomicU64,
    repartitions: AtomicU64,
    queue_high_water: AtomicU64,
    overlap_nanos: AtomicU64,
    peak_used: AtomicU64,
}

/// A snapshot of the spill counters, surfaced through
/// [`crate::session::Database::spill_stats`] and the bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partitions flushed from memory to disk.
    pub spilled_partitions: u64,
    /// Rows written to spill files.
    pub spilled_rows: u64,
    /// Bytes written to spill files (encoded frame bytes).
    pub spilled_bytes: u64,
    /// Spill files created.
    pub spill_files: u64,
    /// Spilled partitions read back for processing.
    pub rehydrated_partitions: u64,
    /// Rows read back from spill files.
    pub rehydrated_rows: u64,
    /// Bytes read back from spill files (encoded frame bytes).
    pub bytes_read: u64,
    /// Recursive re-partition passes (a partition did not fit and was
    /// split again on a rotated hash-bit range).
    pub repartitions: u64,
    /// High-water mark of the background writer queue (frames in flight).
    pub queue_high_water: u64,
    /// Nanoseconds the background writer spent writing — I/O time that
    /// overlapped with execution instead of blocking it.
    pub overlap_nanos: u64,
    /// Peak budget-accounted bytes observed. With per-worker spill
    /// partitioning this stays near the limit even at high parallelism —
    /// the proof that breaker inputs are never fully materialized.
    pub peak_used: u64,
}

impl SpillStats {
    /// True when any spilling happened at all.
    pub fn spilled(&self) -> bool {
        self.spilled_partitions > 0
    }
}

#[derive(Debug)]
struct SlotState {
    file: Option<FileHandle>,
    pending: usize,
    error: Option<String>,
}

/// Shared state between one [`SpillWriter`] and the background writer
/// thread: the open file, the count of queued-but-unwritten frames, and
/// the first write error (sticky until surfaced).
#[derive(Debug)]
struct FileSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum IoMsg {
    Frame { slot: Arc<FileSlot>, bytes: Vec<u8> },
}

/// The per-session background writer: a bounded frame queue and the
/// thread draining it. The thread exits when every sender is gone
/// (session drop plus all in-flight writers).
#[derive(Debug)]
struct SpillIo {
    tx: SyncSender<IoMsg>,
    handle: Option<std::thread::JoinHandle<()>>,
    inflight: Arc<AtomicU64>,
}

fn writer_loop(rx: Receiver<IoMsg>, stats: Arc<StatCells>, inflight: Arc<AtomicU64>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            IoMsg::Frame { slot, bytes } => {
                let start = std::time::Instant::now();
                {
                    let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
                    if st.error.is_none() {
                        if let Some(file) = st.file.as_mut() {
                            if let Err(e) = file.write_all(&bytes) {
                                st.error = Some(e.to_string());
                            }
                        }
                    }
                    st.pending -= 1;
                    slot.cv.notify_all();
                }
                stats
                    .overlap_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                inflight.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Byte limit; `usize::MAX` means unbounded.
    limit: AtomicUsize,
    /// Estimated bytes currently held by budget-tracked operator state.
    used: AtomicUsize,
    /// Directory spill files are created in.
    spill_dir: Mutex<PathBuf>,
    /// Shared with the writer thread (which must not keep `BudgetInner`
    /// itself alive, or the session could never drop).
    stats: Arc<StatCells>,
    /// Lazily-started background writer; lives for the session.
    io: Mutex<Option<SpillIo>>,
}

impl Drop for BudgetInner {
    fn drop(&mut self) {
        // Every live SpillWriter holds a budget clone, so when the inner
        // drops there are no senders left beyond ours: closing it ends
        // the writer thread, and joining cannot deadlock.
        if let Some(io) = self.io.get_mut().map(Option::take).unwrap_or(None) {
            let SpillIo { tx, handle, .. } = io;
            drop(tx);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

/// The session-wide memory accounting handle threaded through the
/// executor. Clones share one underlying account, so every operator of a
/// query (serial or parallel) draws from the same pool.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl Default for MemoryBudget {
    fn default() -> MemoryBudget {
        MemoryBudget::unbounded()
    }
}

impl MemoryBudget {
    fn with_raw_limit(limit: usize) -> MemoryBudget {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit: AtomicUsize::new(limit),
                used: AtomicUsize::new(0),
                spill_dir: Mutex::new(std::env::temp_dir()),
                stats: Arc::new(StatCells::default()),
                io: Mutex::new(None),
            }),
        }
    }

    /// A budget that never spills (the default).
    pub fn unbounded() -> MemoryBudget {
        MemoryBudget::with_raw_limit(usize::MAX)
    }

    /// A budget limited to `bytes` of tracked operator state.
    pub fn with_limit(bytes: usize) -> MemoryBudget {
        MemoryBudget::with_raw_limit(bytes.max(1))
    }

    /// Change the limit in place (`None` = unbounded). Counters and the
    /// spill directory are preserved.
    pub fn set_limit(&self, bytes: Option<usize>) {
        let raw = match bytes {
            Some(b) => b.max(1),
            None => usize::MAX,
        };
        self.inner.limit.store(raw, Ordering::Relaxed);
    }

    /// The configured limit, `None` when unbounded.
    pub fn limit(&self) -> Option<usize> {
        match self.inner.limit.load(Ordering::Relaxed) {
            usize::MAX => None,
            b => Some(b),
        }
    }

    /// Whether a limit is set at all. Unbounded budgets take none of the
    /// spill paths.
    pub fn is_bounded(&self) -> bool {
        self.limit().is_some()
    }

    /// Set the directory spill files are created in.
    pub fn set_spill_dir(&self, dir: PathBuf) {
        *self
            .inner
            .spill_dir
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = dir;
    }

    /// The directory spill files are created in.
    pub fn spill_dir(&self) -> PathBuf {
        self.inner
            .spill_dir
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot the spill/rehydrate counters.
    pub fn stats(&self) -> SpillStats {
        let s = &self.inner.stats;
        SpillStats {
            spilled_partitions: s.spilled_partitions.load(Ordering::Relaxed),
            spilled_rows: s.spilled_rows.load(Ordering::Relaxed),
            spilled_bytes: s.spilled_bytes.load(Ordering::Relaxed),
            spill_files: s.spill_files.load(Ordering::Relaxed),
            rehydrated_partitions: s.rehydrated_partitions.load(Ordering::Relaxed),
            rehydrated_rows: s.rehydrated_rows.load(Ordering::Relaxed),
            bytes_read: s.bytes_read.load(Ordering::Relaxed),
            repartitions: s.repartitions.load(Ordering::Relaxed),
            queue_high_water: s.queue_high_water.load(Ordering::Relaxed),
            overlap_nanos: s.overlap_nanos.load(Ordering::Relaxed),
            peak_used: s.peak_used.load(Ordering::Relaxed),
        }
    }

    /// The background writer's queue handle, starting the thread on
    /// first use.
    fn io(&self) -> Result<(SyncSender<IoMsg>, Arc<AtomicU64>), EngineError> {
        let mut guard = self.inner.io.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let (tx, rx) = std::sync::mpsc::sync_channel::<IoMsg>(SPILL_QUEUE_FRAMES);
            let stats = Arc::clone(&self.inner.stats);
            let inflight = Arc::new(AtomicU64::new(0));
            let thread_inflight = Arc::clone(&inflight);
            let handle = std::thread::Builder::new()
                .name("openivm-spill-io".into())
                .spawn(move || writer_loop(rx, stats, thread_inflight))
                .map_err(|e| {
                    EngineError::execution(format!("cannot start spill writer thread: {e}"))
                })?;
            *guard = Some(SpillIo {
                tx,
                handle: Some(handle),
                inflight,
            });
        }
        let io = guard
            .as_ref()
            .ok_or_else(|| EngineError::execution("spill writer thread is not running"))?;
        Ok((io.tx.clone(), Arc::clone(&io.inflight)))
    }

    /// Account `bytes` of new operator state.
    pub(crate) fn add(&self, bytes: usize) {
        let now = self.inner.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner
            .stats
            .peak_used
            .fetch_max(now as u64, Ordering::Relaxed);
    }

    /// Release `bytes` of operator state.
    pub(crate) fn sub(&self, bytes: usize) {
        self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Whether tracked usage currently exceeds the limit.
    pub(crate) fn over_limit(&self) -> bool {
        self.inner.used.load(Ordering::Relaxed) > self.inner.limit.load(Ordering::Relaxed)
    }

    /// Whether a finished partition of `bytes` is too large to process
    /// in memory and should be re-partitioned on the next bit range.
    pub(crate) fn should_split(&self, bytes: u64) -> bool {
        (bytes as u128) > self.inner.limit.load(Ordering::Relaxed) as u128
    }
}

/// Approximate accounted footprint of one spiller tuple.
#[inline]
pub(crate) fn tuple_bytes(row: &[Value]) -> usize {
    frame::row_bytes(row) + TUPLE_OVERHEAD
}

/// The start time (clock ticks since boot) of a process, from field 22
/// of `/proc/<pid>/stat` — the kernel's disambiguator between a pid and
/// a *recycled* pid: a new process under an old pid gets a new start
/// time. `None` when the process is gone or the field is unreadable.
/// Parsed after the last `)` because the comm field may itself contain
/// spaces and parentheses.
#[cfg(target_os = "linux")]
fn proc_start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    // Tokens after the comm field start at field 3 (state), so field 22
    // (starttime) is the 20th token here.
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

/// This process's own start time, stamped into every spill filename so
/// a later process that drew the same pid (PID reuse) — or another
/// concurrent session in *this* process — can tell our files from a
/// dead owner's. 0 where `/proc` is unavailable.
fn own_start_time() -> u64 {
    static OWN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *OWN.get_or_init(|| {
        #[cfg(target_os = "linux")]
        {
            proc_start_time(std::process::id()).unwrap_or(0)
        }
        #[cfg(not(target_os = "linux"))]
        {
            0
        }
    })
}

/// Whether the recorded owner of a spill file is still alive — meaning
/// the pid exists *and* belongs to the same process incarnation that
/// created the file. A dead pid is reclaimable; a live pid with a
/// different start time is a recycled pid, i.e. the real owner is dead
/// and the file is reclaimable too. Legacy filenames without a start
/// time (`start_time == None`) fall back to bare pid liveness. Only
/// Linux gives us a cheap answer (`/proc/<pid>/stat`); elsewhere we
/// stay conservative and never reclaim another process's files.
fn spill_owner_alive(pid: u32, start_time: Option<u64>) -> bool {
    #[cfg(target_os = "linux")]
    {
        match proc_start_time(pid) {
            None => false,
            Some(current) => match start_time {
                Some(recorded) => current == recorded,
                None => true,
            },
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (pid, start_time);
        true
    }
}

/// Delete `openivm-spill-{pid}-{starttime}-{seq}.bin` files in `dir`
/// whose owning process incarnation is dead — the temp files a crashed
/// process leaves behind. Liveness is pid + process start time, so a
/// recycled pid cannot make a dead owner's files look owned (or, before
/// this check existed, leak them forever). Files of the live owner
/// (including our own) are never touched; legacy two-part names
/// (`pid-seq`) are judged on pid liveness alone. Returns the number of
/// files removed; all I/O errors are swallowed (cleanup is best-effort
/// and races with concurrent databases).
pub fn clean_orphan_spill_files(dir: &Path) -> usize {
    let Ok(entries) = sio::read_dir(dir) else {
        return 0;
    };
    let own_pid = std::process::id();
    let mut removed = 0;
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("openivm-spill-")
            .and_then(|r| r.strip_suffix(".bin"))
        else {
            continue;
        };
        let mut parts = stem.split('-');
        let Some(pid) = parts.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        // Three-part names carry the owner's start time; legacy
        // two-part names (`pid-seq`) don't.
        let start_time = match (parts.next(), parts.next()) {
            (Some(st), Some(_seq)) => st.parse::<u64>().ok(),
            _ => None,
        };
        let ours = pid == own_pid && start_time.is_none_or(|st| st == own_start_time());
        if ours || spill_owner_alive(pid, start_time) {
            continue;
        }
        if sio::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// `Read` adapter counting decoded bytes, feeding the `bytes_read` stat.
struct CountingReader<R> {
    inner: R,
    n: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.n += n as u64;
        Ok(n)
    }
}

/// A spill file being written. Frames are encoded here on the calling
/// thread and handed to the session's background writer; `finish` drains
/// the queue, surfaces any deferred write error, and fsyncs.
#[derive(Debug)]
pub(crate) struct SpillWriter {
    /// Keeps the session (and so the writer thread) alive while any
    /// writer exists.
    budget: MemoryBudget,
    slot: Arc<FileSlot>,
    tx: SyncSender<IoMsg>,
    inflight: Arc<AtomicU64>,
    path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Create a fresh spill file in `budget`'s spill directory.
    pub(crate) fn create(budget: &MemoryBudget) -> Result<SpillWriter, EngineError> {
        let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = budget.spill_dir().join(format!(
            "openivm-spill-{}-{}-{}.bin",
            std::process::id(),
            own_start_time(),
            seq
        ));
        SpillWriter::create_at(path, budget)
    }

    /// Create a writer at an explicit path. A missing or closed
    /// directory fails here, synchronously; device-level errors (ENOSPC)
    /// surface later through the async error path.
    fn create_at(path: PathBuf, budget: &MemoryBudget) -> Result<SpillWriter, EngineError> {
        let file = sio::open(&path, OpenMode::Create)
            .map_err(|e| EngineError::execution(format!("cannot create spill file: {e}")))?;
        let (tx, inflight) = budget.io()?;
        budget
            .inner
            .stats
            .spill_files
            .fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(FileSlot {
            state: Mutex::new(SlotState {
                file: Some(file),
                pending: 0,
                error: None,
            }),
            cv: Condvar::new(),
        });
        let mut w = SpillWriter {
            budget: budget.clone(),
            slot,
            tx,
            inflight,
            path,
            rows: 0,
            bytes: 0,
        };
        // The header rides the queue like every frame, so even it gets
        // the async error discipline (a full device fails the next
        // enqueue or `finish`, never a hang).
        let mut header = Vec::new();
        frame::write_header(&mut header)?;
        w.enqueue(header)?;
        Ok(w)
    }

    fn enqueue(&mut self, bytes: Vec<u8>) -> Result<(), EngineError> {
        {
            let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = &st.error {
                return Err(EngineError::execution(format!("spill write failed: {e}")));
            }
            st.pending += 1;
        }
        let queued = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.budget
            .inner
            .stats
            .queue_high_water
            .fetch_max(queued, Ordering::Relaxed);
        self.tx
            .send(IoMsg::Frame {
                slot: Arc::clone(&self.slot),
                bytes,
            })
            .map_err(|_| EngineError::execution("spill writer thread terminated"))
    }

    /// Encode one frame of rows and queue it for the background writer.
    /// Returns as soon as the queue accepts the frame.
    pub(crate) fn write_rows(&mut self, rows: &[Row]) -> Result<(), EngineError> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        self.bytes += frame::write_frame(&mut buf, rows)?;
        self.rows += rows.len() as u64;
        self.enqueue(buf)
    }

    /// Drain queued frames, surface any deferred write error, fsync, and
    /// seal into a readable [`SpillFile`].
    pub(crate) fn finish(mut self) -> Result<SpillFile, EngineError> {
        let file = {
            let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.pending > 0 {
                st = self.slot.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if let Some(e) = st.error.take() {
                return Err(EngineError::execution(format!("spill write failed: {e}")));
            }
            st.file.take()
        };
        if let Some(mut file) = file {
            file.sync_data()
                .map_err(|e| EngineError::execution(format!("spill fsync failed: {e}")))?;
        }
        Ok(SpillFile {
            path: std::mem::take(&mut self.path),
            rows: self.rows,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        // Abandoned writers (error paths) must not leak their file; any
        // still-queued frames find the slot closed and are discarded.
        if !self.path.as_os_str().is_empty() {
            let _ = sio::remove_file(&self.path);
            self.slot
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .file = None;
        }
    }
}

/// A sealed spill file; removed from disk when dropped.
#[derive(Debug)]
pub(crate) struct SpillFile {
    path: PathBuf,
    rows: u64,
}

impl SpillFile {
    /// Number of rows in the file.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = sio::remove_file(&self.path);
    }
}

/// A frame-at-a-time reader over a sealed spill file — the one way
/// spilled rows come back. Owns the file handle (so deletion still
/// happens on drop) and keeps only one decoded frame in memory.
pub(crate) struct SpillReader {
    _file: SpillFile,
    r: CountingReader<BufReader<FileHandle>>,
    stats: Arc<StatCells>,
    counted: u64,
}

impl SpillReader {
    pub(crate) fn open(file: SpillFile, budget: &MemoryBudget) -> Result<SpillReader, EngineError> {
        let stats = Arc::clone(&budget.inner.stats);
        stats.rehydrated_partitions.fetch_add(1, Ordering::Relaxed);
        let f = sio::open(&file.path, OpenMode::ReadOnly)
            .map_err(|e| EngineError::execution(format!("cannot reopen spill file: {e}")))?;
        let mut r = CountingReader {
            inner: BufReader::new(f),
            n: 0,
        };
        frame::read_header(&mut r)?;
        Ok(SpillReader {
            _file: file,
            r,
            stats,
            counted: 0,
        })
    }

    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<Row>>, EngineError> {
        let frame = frame::read_frame(&mut self.r)?;
        self.stats
            .bytes_read
            .fetch_add(self.r.n - self.counted, Ordering::Relaxed);
        self.counted = self.r.n;
        if let Some(rows) = &frame {
            self.stats
                .rehydrated_rows
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
        }
        Ok(frame)
    }
}

/// One stored tuple: two `u64` tags and the row. A radix partition
/// stores `(key hash, global sequence, row)`, an output run
/// `(k1, k2, row)` under its emission key.
pub(crate) type Tagged = (u64, u64, Row);

/// One bucket of the store: resident tuples until the budget evicts
/// them, then a spill file that every later tuple reaches through a
/// small write buffer — so a bucket is wholly resident or wholly on
/// disk, in push order either way.
#[derive(Debug, Default)]
struct Bucket {
    resident: Vec<Tagged>,
    resident_bytes: usize,
    writer: Option<SpillWriter>,
    write_buf: Vec<Row>,
    total_bytes: u64,
}

/// The one bucket store every spilled row passes through. As the radix
/// accumulator ([`PartitionedSpiller::new`]) it has [`NUM_PARTITIONS`]
/// buckets and routes each row by a high-bit slice of its hash; as an
/// operator's output runs ([`PartitionedSpiller::runs`]) each
/// [`begin_run`](PartitionedSpiller::begin_run) opens the next bucket
/// and rows append to it. Either way buckets buffer in memory while the
/// budget allows, and an overflow evicts the largest resident bucket to
/// its spill file.
#[derive(Debug)]
pub(crate) struct PartitionedSpiller {
    budget: MemoryBudget,
    buckets: Vec<Bucket>,
    bit_offset: u32,
    held: usize,
}

/// One producer's finished partition set, indexed by radix partition:
/// index `i` of every producer's set holds the same key space, so a
/// grace consumer merges index `i` across producers.
pub(crate) type PartitionGroups = Vec<Vec<SpillPartition>>;

/// One finished partition: resident rows or a sealed spill file.
#[derive(Debug)]
pub(crate) enum SpillPartition {
    /// Fully in memory.
    Resident {
        /// The partition's tuples in arrival (sequence-ascending) order.
        rows: Vec<Tagged>,
        /// Accounted bytes.
        bytes: u64,
    },
    /// On disk.
    Spilled {
        /// The sealed file (tuples in arrival order).
        file: SpillFile,
        /// Accounted bytes.
        bytes: u64,
    },
}

impl SpillPartition {
    /// Accounted byte size of the partition.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            SpillPartition::Resident { bytes, .. } | SpillPartition::Spilled { bytes, .. } => {
                *bytes
            }
        }
    }

    /// Number of tuples in the partition.
    pub(crate) fn row_count(&self) -> u64 {
        match self {
            SpillPartition::Resident { rows, .. } => rows.len() as u64,
            SpillPartition::Spilled { file, .. } => file.rows(),
        }
    }
}

/// Append a tuple's two tags to its row as columns, for spill encoding.
fn tag((a, b, mut row): Tagged) -> Row {
    row.push(Value::Integer(b as i64));
    row.push(Value::Integer(a as i64));
    row
}

/// Strip the tag columns back off a spilled row.
fn untag(mut row: Row) -> Result<Tagged, EngineError> {
    let a = row
        .pop()
        .and_then(|v| v.as_integer())
        .ok_or_else(|| EngineError::execution("corrupt spill frame: missing hash tag"))?;
    let b = row
        .pop()
        .and_then(|v| v.as_integer())
        .ok_or_else(|| EngineError::execution("corrupt spill frame: missing sequence tag"))?;
    Ok((a as u64, b as u64, row))
}

impl PartitionedSpiller {
    /// A radix spiller at recursion level `bit_offset / PART_BITS`.
    pub(crate) fn new(budget: MemoryBudget, bit_offset: u32) -> PartitionedSpiller {
        PartitionedSpiller {
            budget,
            buckets: (0..NUM_PARTITIONS).map(|_| Bucket::default()).collect(),
            bit_offset,
            held: 0,
        }
    }

    /// A store of output runs: no bucket until the first
    /// [`begin_run`](PartitionedSpiller::begin_run). Each fitting
    /// partition a breaker processes appends one key-ascending run, and
    /// a [`SpillMerge::by_key`] over the finished runs emits the result
    /// in key order — no materialize-and-sort of the whole output.
    pub(crate) fn runs(budget: MemoryBudget) -> PartitionedSpiller {
        PartitionedSpiller {
            budget,
            buckets: Vec::new(),
            bit_offset: 0,
            held: 0,
        }
    }

    /// Open the next output run. Keys must ascend *within* a run; runs
    /// may overlap each other freely. Only the last run grows, so a
    /// spilled run's file holds the whole run in key order.
    pub(crate) fn begin_run(&mut self) {
        self.buckets.push(Bucket::default());
    }

    /// Route one tuple to its radix partition.
    pub(crate) fn push(&mut self, hash: u64, seq: u64, row: Row) -> Result<(), EngineError> {
        self.push_to(spill_partition_of(hash, self.bit_offset), (hash, seq, row))
    }

    /// Append one output row to the current run under key `(k1, k2)`.
    pub(crate) fn push_run(&mut self, k1: u64, k2: u64, row: Row) -> Result<(), EngineError> {
        let last = self
            .buckets
            .len()
            .checked_sub(1)
            .expect("begin_run before push_run");
        debug_assert!(
            self.buckets[last]
                .resident
                .last()
                .is_none_or(|t| (t.0, t.1) <= (k1, k2)),
            "output run keys must ascend"
        );
        self.push_to(last, (k1, k2, row))
    }

    /// Store one tuple in bucket `b`, evicting the largest resident
    /// buckets when the budget overflows.
    fn push_to(&mut self, b: usize, tuple: Tagged) -> Result<(), EngineError> {
        let bytes = tuple_bytes(&tuple.2);
        let bucket = &mut self.buckets[b];
        bucket.total_bytes += bytes as u64;
        if bucket.writer.is_some() {
            bucket.write_buf.push(tag(tuple));
            if bucket.write_buf.len() >= WRITE_BUFFER_ROWS {
                Self::flush_write_buf(bucket, &self.budget)?;
            }
            return Ok(());
        }
        bucket.resident.push(tuple);
        bucket.resident_bytes += bytes;
        self.held += bytes;
        self.budget.add(bytes);
        while self.budget.over_limit() {
            if !self.spill_largest()? {
                break;
            }
        }
        Ok(())
    }

    fn flush_write_buf(bucket: &mut Bucket, budget: &MemoryBudget) -> Result<(), EngineError> {
        if bucket.write_buf.is_empty() {
            return Ok(());
        }
        let writer = bucket.writer.as_mut().expect("flushing a spilled bucket");
        let before = writer.bytes;
        // Chunked frames: the initial eviction can carry a budget's worth
        // of resident rows at once, and rehydration materializes one
        // frame at a time.
        for chunk in bucket.write_buf.chunks(4096) {
            writer.write_rows(chunk)?;
        }
        let stats = &budget.inner.stats;
        stats
            .spilled_rows
            .fetch_add(bucket.write_buf.len() as u64, Ordering::Relaxed);
        stats
            .spilled_bytes
            .fetch_add(writer.bytes - before, Ordering::Relaxed);
        bucket.write_buf.clear();
        Ok(())
    }

    /// Flush the largest resident bucket to disk; `false` when every
    /// bucket is already spilled (nothing left to evict here).
    fn spill_largest(&mut self) -> Result<bool, EngineError> {
        let victim = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.resident.is_empty())
            .max_by_key(|(_, b)| b.resident_bytes)
            .map(|(i, _)| i);
        let Some(i) = victim else {
            return Ok(false);
        };
        let budget = self.budget.clone();
        let bucket = &mut self.buckets[i];
        if bucket.writer.is_none() {
            bucket.writer = Some(SpillWriter::create(&budget)?);
            budget
                .inner
                .stats
                .spilled_partitions
                .fetch_add(1, Ordering::Relaxed);
        }
        bucket
            .write_buf
            .extend(std::mem::take(&mut bucket.resident).into_iter().map(tag));
        Self::flush_write_buf(bucket, &budget)?;
        let released = std::mem::take(&mut bucket.resident_bytes);
        self.held -= released;
        self.budget.sub(released);
        Ok(true)
    }

    /// Seal every bucket, in bucket order. The budget reservation for
    /// resident rows transfers to the caller's processing phase and is
    /// released here (processing is partition-at-a-time and checks
    /// [`MemoryBudget::should_split`] before materializing anything).
    pub(crate) fn finish(mut self) -> Result<Vec<SpillPartition>, EngineError> {
        let budget = self.budget.clone();
        let mut out = Vec::with_capacity(self.buckets.len());
        for mut bucket in self.buckets.drain(..) {
            let bytes = bucket.total_bytes;
            out.push(if bucket.writer.is_some() {
                Self::flush_write_buf(&mut bucket, &budget)?;
                let file = bucket.writer.take().expect("checked above").finish()?;
                SpillPartition::Spilled { file, bytes }
            } else {
                SpillPartition::Resident {
                    rows: bucket.resident,
                    bytes,
                }
            });
        }
        budget.sub(std::mem::take(&mut self.held));
        Ok(out)
    }
}

/// How rows on their way into a [`PartitionedSpiller`] hash. It must be
/// the hash the consuming breaker uses when it drains its own input, so
/// radix partitions align between every producer and the breaker's grace
/// processing.
pub(crate) enum SpillHash<'s> {
    /// Equi-join key hash over the given columns.
    Keys(&'s [usize]),
    /// Whole-row hash (EXCEPT / INTERSECT).
    WholeRow,
    /// Aggregation group-key hash.
    Agg(&'s AggSpec),
}

/// Drain `source` into `spiller`: every batch is hashed by `hash` and its
/// rows pushed with consecutive sequence tags starting at `seq_base`.
/// The one way operator output reaches a spiller: a breaker's drained
/// input ([`crate::exec::Input::partitions`]) and every morsel worker's
/// chains alike.
pub(crate) fn spill_batches(
    source: &mut BoxedOperator<'_>,
    hash: &SpillHash<'_>,
    seq_base: u64,
    spiller: &mut PartitionedSpiller,
) -> Result<(), EngineError> {
    let mut seq = seq_base;
    while let Some(batch) = source.next_batch()? {
        let hashes = match hash {
            SpillHash::Keys(cols) => hash_batch_keys(&batch, cols).hashes,
            SpillHash::WholeRow => hash_batch_rows(&batch),
            SpillHash::Agg(spec) => spec.group_hashes(&batch)?,
        };
        for (r, &h) in hashes.iter().enumerate() {
            spiller.push(h, seq, batch.materialize_row(r))?;
            seq += 1;
        }
    }
    Ok(())
}

impl Drop for PartitionedSpiller {
    fn drop(&mut self) {
        // Error paths drop the spiller without `finish`; release the
        // reservation so the session budget doesn't leak usage.
        self.budget.sub(self.held);
        self.held = 0;
    }
}

/// Cursor over one finished bucket: its resident tuples, or its spill
/// file one decoded frame at a time.
struct Cursor {
    reader: Option<SpillReader>,
    buf: VecDeque<Tagged>,
}

impl Cursor {
    fn open(part: SpillPartition, budget: &MemoryBudget) -> Result<Cursor, EngineError> {
        let mut cursor = match part {
            SpillPartition::Resident { rows, .. } => Cursor {
                reader: None,
                buf: rows.into(),
            },
            SpillPartition::Spilled { file, .. } => Cursor {
                reader: Some(SpillReader::open(file, budget)?),
                buf: VecDeque::new(),
            },
        };
        cursor.refill()?;
        Ok(cursor)
    }

    fn refill(&mut self) -> Result<(), EngineError> {
        while self.buf.is_empty() {
            let Some(r) = self.reader.as_mut() else {
                return Ok(());
            };
            match r.next_frame()? {
                Some(rows) => {
                    for row in rows {
                        self.buf.push_back(untag(row)?);
                    }
                }
                None => self.reader = None,
            }
        }
        Ok(())
    }
}

/// The one k-way merge over finished buckets, each ascending in the
/// merge's order: by sequence for radix partitions
/// ([`SpillMerge::by_seq`] — the per-producer slices of a partition
/// merge back into one serial-order stream) and by `(k1, k2)` for output
/// runs ([`SpillMerge::by_key`] — the runs merge into the operator's
/// serial output order). A spilled bucket keeps one decoded frame
/// resident, so merging `k` buckets costs ~`k` frames of memory.
pub(crate) struct SpillMerge {
    cursors: Vec<Cursor>,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    key: fn(&Tagged) -> (u64, u64),
}

impl SpillMerge {
    /// Merge radix partitions on their sequence tags (globally unique
    /// across `parts`).
    pub(crate) fn by_seq(
        parts: Vec<SpillPartition>,
        budget: &MemoryBudget,
    ) -> Result<SpillMerge, EngineError> {
        SpillMerge::new(parts, budget, |t| (t.1, 0))
    }

    /// Merge output runs on their `(k1, k2)` emission keys.
    pub(crate) fn by_key(
        runs: Vec<SpillPartition>,
        budget: &MemoryBudget,
    ) -> Result<SpillMerge, EngineError> {
        SpillMerge::new(runs, budget, |t| (t.0, t.1))
    }

    fn new(
        parts: Vec<SpillPartition>,
        budget: &MemoryBudget,
        key: fn(&Tagged) -> (u64, u64),
    ) -> Result<SpillMerge, EngineError> {
        let mut merge = SpillMerge {
            cursors: Vec::with_capacity(parts.len()),
            heap: BinaryHeap::new(),
            key,
        };
        for part in parts {
            if part.row_count() > 0 {
                merge.cursors.push(Cursor::open(part, budget)?);
                merge.push_head(merge.cursors.len() - 1);
            }
        }
        Ok(merge)
    }

    fn push_head(&mut self, i: usize) {
        if let Some(t) = self.cursors[i].buf.front() {
            let (k1, k2) = (self.key)(t);
            self.heap.push(Reverse((k1, k2, i)));
        }
    }

    /// The next tuple in merge order.
    pub(crate) fn next(&mut self) -> Result<Option<Tagged>, EngineError> {
        let Some(Reverse((_, _, i))) = self.heap.pop() else {
            return Ok(None);
        };
        let tuple = self.cursors[i]
            .buf
            .pop_front()
            .expect("heap entry implies a buffered tuple");
        self.cursors[i].refill()?;
        self.push_head(i);
        Ok(Some(tuple))
    }

    /// Materialize the merged stream (for sides the budget says fit).
    pub(crate) fn collect_all(mut self) -> Result<Vec<Tagged>, EngineError> {
        let mut out = Vec::new();
        while let Some(t) = self.next()? {
            out.push(t);
        }
        Ok(out)
    }

    /// Stream the merged tuples through `f` in chunks of at most
    /// `chunk_rows` — the streamed-side discipline: never materialize.
    pub(crate) fn for_each_chunk(
        mut self,
        chunk_rows: usize,
        mut f: impl FnMut(Vec<Tagged>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let cap = chunk_rows.max(1);
        let mut chunk: Vec<Tagged> = Vec::with_capacity(cap);
        while let Some(t) = self.next()? {
            chunk.push(t);
            if chunk.len() == cap {
                f(std::mem::take(&mut chunk))?;
            }
        }
        if !chunk.is_empty() {
            f(chunk)?;
        }
        Ok(())
    }

    /// The next batch of up to `batch_size` merged rows (tags dropped),
    /// `None` at end: how a breaker emits its output runs.
    pub(crate) fn next_batch<'a>(
        &mut self,
        batch_size: usize,
    ) -> Result<Option<RowBatch<'a>>, EngineError> {
        let cap = batch_size.max(1);
        let mut rows: Vec<Row> = Vec::with_capacity(cap);
        while rows.len() < cap {
            match self.next()? {
                Some((_, _, row)) => rows.push(row),
                None => break,
            }
        }
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(RowBatch::from_rows(rows[0].len(), rows)))
        }
    }
}

/// Gather column `p` from every producer's partition vector.
fn partition_column(groups: &mut [Vec<SpillPartition>], p: usize) -> Vec<SpillPartition> {
    let mut col = Vec::new();
    for g in groups.iter_mut() {
        if p < g.len() {
            col.push(std::mem::replace(
                &mut g[p],
                SpillPartition::Resident {
                    rows: Vec::new(),
                    bytes: 0,
                },
            ));
        }
    }
    col
}

/// Stream a partition group through a sub-spiller on the next bit range
/// (in global sequence order, so sub-partitions stay sequence-ascending).
fn repartition_group(
    parts: Vec<SpillPartition>,
    budget: &MemoryBudget,
    bit_offset: u32,
) -> Result<Vec<SpillPartition>, EngineError> {
    budget
        .inner
        .stats
        .repartitions
        .fetch_add(1, Ordering::Relaxed);
    let mut sub = PartitionedSpiller::new(budget.clone(), bit_offset);
    let mut merge = SpillMerge::by_seq(parts, budget)?;
    while let Some((hash, seq, row)) = merge.next()? {
        sub.push(hash, seq, row)?;
    }
    sub.finish()
}

/// Drive every partition of two groups of finished spillers (one
/// spiller per producer — e.g. one per parallel worker) through
/// `process`, pairing partitions positionally (both sides use the same
/// bit range). A one-input breaker passes an empty side `b`. The
/// per-producer slices of a partition are k-way merged on their
/// sequence tags; `process` receives side `a` fully materialized and
/// side `b` as a sequence-ordered merge to stream. When side `a` does
/// not fit the budget, both sides re-partition on the next bit range
/// (an empty side is not re-partitioned), recursively until
/// [`MAX_SPILL_DEPTH`].
pub(crate) fn for_each_fitting_group(
    mut a_groups: PartitionGroups,
    mut b_groups: PartitionGroups,
    budget: &MemoryBudget,
    depth: u32,
    process: &mut impl FnMut(Vec<Tagged>, SpillMerge) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let rows = |parts: &[SpillPartition]| parts.iter().map(SpillPartition::row_count).sum::<u64>();
    let n = a_groups.iter().chain(&b_groups).map(Vec::len).max();
    for p in 0..n.unwrap_or(0) {
        let a = partition_column(&mut a_groups, p);
        let b = partition_column(&mut b_groups, p);
        let (a_rows, b_rows) = (rows(&a), rows(&b));
        if a_rows == 0 && b_rows == 0 {
            continue;
        }
        let a_bytes: u64 = a.iter().map(SpillPartition::bytes).sum();
        if depth + 1 < MAX_SPILL_DEPTH && budget.should_split(a_bytes) && a_rows > 1 {
            let off = (depth + 1) * PART_BITS;
            let a_sub = vec![repartition_group(a, budget, off)?];
            let b_sub = if b_rows == 0 {
                Vec::new()
            } else {
                vec![repartition_group(b, budget, off)?]
            };
            for_each_fitting_group(a_sub, b_sub, budget, depth + 1, process)?;
        } else {
            let a = SpillMerge::by_seq(a, budget)?.collect_all()?;
            process(a, SpillMerge::by_seq(b, budget)?)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        vec![Value::Integer(i), Value::Varchar(format!("row-{i}"))]
    }

    #[test]
    fn budget_limits_and_counters() {
        let b = MemoryBudget::unbounded();
        assert!(!b.is_bounded());
        assert_eq!(b.limit(), None);
        b.set_limit(Some(1024));
        assert!(b.is_bounded());
        assert_eq!(b.limit(), Some(1024));
        b.add(2000);
        assert!(b.over_limit());
        b.sub(2000);
        assert!(!b.over_limit());
        assert!(b.should_split(2048));
        assert!(!b.should_split(512));
        assert!(b.stats().peak_used >= 2000);
        b.set_limit(None);
        assert!(!b.is_bounded());
    }

    #[test]
    fn spill_file_round_trips_and_cleans_up() {
        let budget = MemoryBudget::with_limit(1);
        let mut w = SpillWriter::create(&budget).unwrap();
        w.write_rows(&[row(1), row(2)]).unwrap();
        w.write_rows(&[row(3)]).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(file.rows(), 3);
        let path = file.path.clone();
        let mut reader = SpillReader::open(file, &budget).unwrap();
        let mut seen = Vec::new();
        while let Some(rows) = reader.next_frame().unwrap() {
            seen.extend(rows);
        }
        assert_eq!(seen, vec![row(1), row(2), row(3)]);
        assert!(budget.stats().bytes_read > 0);
        assert!(path.exists());
        drop(reader);
        assert!(!path.exists(), "spill file must be removed on drop");
    }

    #[test]
    fn abandoned_writer_removes_its_file() {
        let budget = MemoryBudget::with_limit(1);
        let w = SpillWriter::create(&budget).unwrap();
        let path = w.path.clone();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists(), "abandoned spill file must be removed");
    }

    #[cfg(unix)]
    #[test]
    fn writer_thread_error_surfaces_cleanly() {
        // /dev/full accepts the open but fails every write with ENOSPC;
        // the failure happens on the background writer thread and must
        // surface as a clean EngineError — never a hang or a panic.
        let dev_full = PathBuf::from("/dev/full");
        if !dev_full.exists() {
            return;
        }
        let budget = MemoryBudget::with_limit(1);
        let mut w = SpillWriter::create_at(dev_full, &budget).unwrap();
        let mut failed = false;
        for i in 0..1000 {
            let rows: Vec<Row> = (0..64).map(|j| row(i * 64 + j)).collect();
            if w.write_rows(&rows).is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            assert!(w.finish().is_err(), "ENOSPC must surface by finish()");
        }
    }

    #[test]
    fn writer_in_missing_directory_fails_fast() {
        let budget = MemoryBudget::with_limit(1);
        budget.set_spill_dir(PathBuf::from("/nonexistent-openivm-spill-dir"));
        assert!(SpillWriter::create(&budget).is_err());
    }

    #[test]
    fn unbounded_spiller_stays_resident() {
        let budget = MemoryBudget::unbounded();
        let mut s = PartitionedSpiller::new(budget.clone(), 0);
        for i in 0..500 {
            s.push(
                crate::exec::hash::hash_value(&Value::Integer(i)),
                i as u64,
                row(i),
            )
            .unwrap();
        }
        assert!(!budget.stats().spilled());
        let parts = s.finish().unwrap();
        let total: usize = parts
            .iter()
            .map(|p| match p {
                SpillPartition::Resident { rows, .. } => rows.len(),
                SpillPartition::Spilled { .. } => panic!("unbounded must not spill"),
            })
            .sum();
        assert_eq!(total, 500);
        assert!(!budget.stats().spilled());
    }

    #[test]
    fn bounded_spiller_spills_and_replays_in_order() {
        let budget = MemoryBudget::with_limit(2_000);
        let mut s = PartitionedSpiller::new(budget.clone(), 0);
        for i in 0..2_000 {
            s.push(
                crate::exec::hash::hash_value(&Value::Integer(i)),
                i as u64,
                row(i),
            )
            .unwrap();
        }
        assert!(budget.stats().spilled());
        let parts = s.finish().unwrap();
        let stats = budget.stats();
        assert!(stats.spilled() && stats.spilled_rows > 0 && stats.spill_files > 0);
        let mut all: Vec<Tagged> = Vec::new();
        for part in parts {
            // One cursor: the merge yields the partition in stored order.
            let rows = SpillMerge::by_seq(vec![part], &budget)
                .unwrap()
                .collect_all()
                .unwrap();
            // Within a partition, arrival (sequence) order is preserved.
            assert!(rows.windows(2).all(|w| w[0].1 < w[1].1));
            all.extend(rows);
        }
        all.sort_by_key(|(_, seq, _)| *seq);
        assert_eq!(all.len(), 2_000);
        for (i, (hash, seq, r)) in all.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(r, &row(i as i64));
            assert_eq!(
                *hash,
                crate::exec::hash::hash_value(&Value::Integer(i as i64))
            );
        }
        assert!(budget.stats().rehydrated_rows > 0);
        assert!(budget.stats().queue_high_water > 0);
    }

    #[test]
    fn recursion_splits_oversized_partitions() {
        // A tiny budget forces every partition over the limit; the
        // recursive driver must still deliver every row exactly once.
        let budget = MemoryBudget::with_limit(64);
        let mut s = PartitionedSpiller::new(budget.clone(), 0);
        for i in 0..300 {
            s.push(
                crate::exec::hash::hash_value(&Value::Integer(i)),
                i as u64,
                row(i),
            )
            .unwrap();
        }
        let parts = s.finish().unwrap();
        let mut all: Vec<Tagged> = Vec::new();
        for_each_fitting_group(vec![parts], Vec::new(), &budget, 0, &mut |rows, _| {
            all.extend(rows);
            Ok(())
        })
        .unwrap();
        all.sort_by_key(|(_, seq, _)| *seq);
        assert_eq!(all.len(), 300);
        for (i, (_, seq, r)) in all.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(r, &row(i as i64));
        }
        assert!(budget.stats().repartitions > 0, "recursion must trigger");
    }

    #[test]
    fn one_row_budget_spills_everything() {
        let budget = MemoryBudget::with_limit(1);
        let mut s = PartitionedSpiller::new(budget.clone(), 0);
        for i in 0..50 {
            s.push(
                crate::exec::hash::hash_value(&Value::Integer(i)),
                i as u64,
                row(i),
            )
            .unwrap();
        }
        assert!(budget.stats().spilled());
        let parts = s.finish().unwrap();
        let mut n = 0;
        for_each_fitting_group(vec![parts], Vec::new(), &budget, 0, &mut |rows, _| {
            n += rows.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn dropped_spiller_releases_its_reservation() {
        let budget = MemoryBudget::with_limit(usize::MAX - 1);
        {
            let mut s = PartitionedSpiller::new(budget.clone(), 0);
            for i in 0..100 {
                s.push(i as u64, i as u64, row(i)).unwrap();
            }
            assert!(budget.inner.used.load(Ordering::Relaxed) > 0);
        }
        assert_eq!(budget.inner.used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn group_merge_restores_sequence_order_across_producers() {
        // Simulate 3 workers spilling disjoint sequence ranges; the
        // group driver must hand each partition back in global seq order.
        let budget = MemoryBudget::with_limit(512);
        let mut groups = Vec::new();
        for w in 0..3u64 {
            let mut s = PartitionedSpiller::new(budget.clone(), 0);
            for i in 0..200u64 {
                let seq = (i << 2) | w; // interleaved but per-worker ascending
                s.push(
                    crate::exec::hash::hash_value(&Value::Integer((i % 7) as i64)),
                    seq,
                    row(seq as i64),
                )
                .unwrap();
            }
            groups.push(s.finish().unwrap());
        }
        let mut all: Vec<Tagged> = Vec::new();
        for_each_fitting_group(groups, Vec::new(), &budget, 0, &mut |rows, _| {
            assert!(rows.windows(2).all(|t| t[0].1 < t[1].1));
            all.extend(rows);
            Ok(())
        })
        .unwrap();
        assert_eq!(all.len(), 600);
        all.sort_by_key(|t| t.1);
        for t in &all {
            assert_eq!(t.2, row(t.1 as i64));
        }
    }

    #[test]
    fn output_runs_merge_in_key_order_under_pressure() {
        let budget = MemoryBudget::with_limit(256);
        let mut runs = PartitionedSpiller::runs(budget.clone());
        // Three overlapping runs, each internally ascending.
        for r in 0..3u64 {
            runs.begin_run();
            for i in 0..100u64 {
                runs.push_run(i * 3 + r, 0, row((i * 3 + r) as i64))
                    .unwrap();
            }
        }
        let mut emit = SpillMerge::by_key(runs.finish().unwrap(), &budget).unwrap();
        let mut seen = Vec::new();
        while let Some(batch) = emit.next_batch(7).unwrap() {
            assert!(batch.num_rows() <= 7);
            seen.extend(batch.to_rows());
        }
        assert_eq!(seen.len(), 300);
        for (i, r) in seen.iter().enumerate() {
            assert_eq!(r, &row(i as i64));
        }
        assert!(budget.stats().spilled(), "256-byte budget must flush runs");
        assert_eq!(budget.inner.used.load(Ordering::Relaxed), 0);
    }

    /// A scratch directory for reaper tests, removed on drop.
    struct ReaperDir(PathBuf);
    impl ReaperDir {
        fn new(tag: &str) -> ReaperDir {
            let dir = std::env::temp_dir().join(format!(
                "openivm-iotest-reaper-{}-{}",
                std::process::id(),
                tag
            ));
            std::fs::create_dir_all(&dir).unwrap();
            ReaperDir(dir)
        }
        fn fake(&self, name: &str) -> PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, b"stale marker").unwrap();
            path
        }
    }
    impl Drop for ReaperDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A pid that is certainly dead: spawn a short-lived child and reap
    /// it. (The pid could in principle be recycled immediately, but the
    /// reaper tests that rely on this also record a bogus start time, so
    /// even a recycled pid reads as a dead incarnation.)
    fn dead_pid() -> u32 {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let pid = child.id();
        child.wait().unwrap();
        pid
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn orphan_reaper_survives_pid_reuse() {
        let dir = ReaperDir::new("reuse");
        let own = std::process::id();
        // The PID-reuse regression: a file recorded under *our* pid but
        // a different start time was created by a dead process whose
        // pid the kernel re-issued to us. The old reaper (bare
        // `/proc/<pid>` existence) would leak it forever; the
        // start-time check reclaims it.
        let recycled = dir.fake(&format!("openivm-spill-{}-{}-0.bin", own, u64::MAX));
        // Our own live incarnation's file must never be touched.
        let ours = dir.fake(&format!(
            "openivm-spill-{}-{}-1.bin",
            own,
            super::own_start_time()
        ));
        assert_eq!(clean_orphan_spill_files(&dir.0), 1);
        assert!(!recycled.exists(), "recycled-pid orphan must be reclaimed");
        assert!(ours.exists(), "live owner's file must survive");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn orphan_reaper_reclaims_dead_owners_only() {
        let dir = ReaperDir::new("dead");
        let dead = dead_pid();
        let dead_new = dir.fake(&format!("openivm-spill-{}-{}-0.bin", dead, u64::MAX));
        let dead_legacy = dir.fake(&format!("openivm-spill-{dead}-7.bin"));
        // A live foreign incarnation (pid 1 with its true start time)
        // must survive, as must files the parser can't attribute.
        let init_st = super::proc_start_time(1).unwrap();
        let live_foreign = dir.fake(&format!("openivm-spill-1-{init_st}-0.bin"));
        let own_legacy = dir.fake(&format!("openivm-spill-{}-9.bin", std::process::id()));
        let unparseable = dir.fake("openivm-spill-not-a-pid.bin");
        assert_eq!(clean_orphan_spill_files(&dir.0), 2);
        assert!(!dead_new.exists(), "dead owner (stamped) reclaimed");
        assert!(!dead_legacy.exists(), "dead owner (legacy name) reclaimed");
        assert!(live_foreign.exists(), "live foreign owner kept");
        assert!(own_legacy.exists(), "own legacy file kept");
        assert!(unparseable.exists(), "unparseable names are left alone");
    }

    #[test]
    fn spill_filenames_carry_start_time() {
        let budget = MemoryBudget::with_limit(1);
        let w = SpillWriter::create(&budget).unwrap();
        let name = w.path.file_name().unwrap().to_str().unwrap().to_string();
        drop(w);
        let stem = name
            .strip_prefix("openivm-spill-")
            .and_then(|r| r.strip_suffix(".bin"))
            .unwrap();
        let parts: Vec<&str> = stem.split('-').collect();
        assert_eq!(parts.len(), 3, "pid-starttime-seq: {name}");
        assert_eq!(parts[0].parse::<u32>().unwrap(), std::process::id());
        assert_eq!(parts[1].parse::<u64>().unwrap(), super::own_start_time());
        parts[2].parse::<u64>().unwrap();
    }
}

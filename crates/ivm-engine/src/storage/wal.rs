//! ARIES-lite write-ahead log: logical redo records + committed-prefix
//! replay, split across size-bounded segments.
//!
//! The log is a sequence of segment files `wal.0001.log`, `wal.0002.log`,
//! … in the data directory (a legacy single `wal.log` from older layouts
//! is accepted as segment 0). Each segment is a header (`magic`, `epoch`)
//! followed by CRC-framed records:
//!
//! ```text
//! segment := MAGIC epoch:u64 record*
//! record  := len:u32 crc:u32 payload   (crc = crc32(payload))
//! ```
//!
//! Records are *logical redo*: one per row mutation or DDL action, with a
//! [`WalRecord::Commit`] marker closing each statement. There are no undo
//! records — recovery replays the longest committed prefix onto the
//! catalog restored from the last checkpoint, which is exactly the
//! in-memory engine's statement-at-a-time semantics. Group commit:
//! [`Wal::log`] only buffers (so hot DML paths never block on I/O), and
//! [`Wal::commit`] appends the marker, writes, and optionally fsyncs —
//! one durability point per statement, many records per write.
//!
//! **Rotation.** After a successful commit that leaves the active segment
//! at or past the configured size bound, the log rotates: the next
//! segment is created with the current epoch's header, fsynced, and its
//! directory entry fsynced. A failed rotation is tolerated silently — the
//! committed data is already durable in the active segment, so the log
//! simply stays on it and retries at the next commit. Replay walks the
//! segments in order and tolerates a torn tail only in the *last* one; a
//! torn frame in an earlier segment is real corruption.
//!
//! The *epoch* ties a log to the checkpoint it extends: every checkpoint
//! bumps the epoch, rewrites `catalog.meta` (atomic rename), and resets
//! the log — higher segments are removed *first* (so every crash window
//! leaves an epoch-uniform log), then segment 1 is truncated and given
//! the new epoch. Replay compares epochs and discards a log older than
//! the catalog meta — the crash window between the meta rename and the
//! log reset is thereby safe.
//!
//! **Poisoning.** Any write or fsync failure inside [`Wal::commit`] marks
//! the log poisoned: the buffered records were consumed and a torn frame
//! may sit on disk, so acknowledging any later commit would risk silent
//! loss. A poisoned log refuses further commits (and resets) with a clean
//! error; the session layer turns that into read-only degraded mode.
//! Torn tails (truncated record, checksum mismatch) end replay at the
//! last intact committed record — that is a *normal* crash artifact, not
//! an error. A record whose checksum verifies but whose payload does not
//! decode is real corruption and comes back as a clean [`EngineError`].

use std::io::{Cursor, Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::error::EngineError;
use crate::schema::Column;
use crate::storage::checksum::crc32;
use crate::storage::frame;
use crate::storage::io::{self, FileHandle, OpenMode};
use crate::types::DataType;
use crate::value::Value;

/// WAL file magic (and format version).
pub const WAL_MAGIC: &[u8; 8] = b"OIVMWAL1";

/// Header bytes: magic + epoch.
pub const WAL_HEADER: usize = 16;

/// Default segment size bound: rotate after the active segment reaches
/// this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 << 20;

/// File name of the pre-segmentation single-file layout, still accepted
/// by [`Wal::replay`] as segment 0.
pub const LEGACY_WAL_FILE: &str = "wal.log";

/// Buffered bytes above which [`Wal::log`] writes through to the file
/// (without committing) so huge statements don't balloon memory.
const FLUSH_THRESHOLD: usize = 1 << 20;

/// Cap on identifier/SQL string lengths in records (decode-side sanity
/// bound against corrupt lengths).
const MAX_WAL_TEXT: u32 = 1 << 20;

const TAG_COMMIT: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_TRUNCATE: u8 = 5;
const TAG_COMPACT: u8 = 6;
const TAG_CREATE_TABLE: u8 = 7;
const TAG_DROP_TABLE: u8 = 8;
const TAG_CREATE_VIEW: u8 = 9;
const TAG_DROP_VIEW: u8 = 10;
const TAG_CREATE_INDEX: u8 = 11;
const TAG_DROP_INDEX: u8 = 12;
const TAG_ADD_PK: u8 = 13;

fn corrupt(what: impl Into<String>) -> EngineError {
    EngineError::execution(format!("corrupt WAL record: {}", what.into()))
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> EngineError {
    EngineError::execution(format!("WAL I/O error ({op}, {}): {e}", path.display()))
}

/// One logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Statement boundary: everything logged since the previous marker is
    /// durable as a unit once this record reaches disk.
    Commit,
    /// Row appended to a table (slot id is implied by replay order).
    Insert {
        /// Target table.
        table: String,
        /// Full-width row values.
        row: Vec<Value>,
    },
    /// Row tombstoned by slot id.
    Delete {
        /// Target table.
        table: String,
        /// Physical slot id.
        row_id: u64,
    },
    /// Row replaced in place.
    Update {
        /// Target table.
        table: String,
        /// Physical slot id.
        row_id: u64,
        /// New full-width row values.
        row: Vec<Value>,
    },
    /// All rows deleted (keeps schema and indexes).
    Truncate {
        /// Target table.
        table: String,
    },
    /// Tombstones dropped and slots renumbered.
    Compact {
        /// Target table.
        table: String,
    },
    /// Table created.
    CreateTable {
        /// Table name.
        name: String,
        /// Column layout.
        columns: Vec<Column>,
        /// Primary-key column positions.
        primary_key: Vec<usize>,
    },
    /// Table dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Logical (non-materialized) view created.
    CreateView {
        /// View name.
        name: String,
        /// The view's defining query, printed as SQL.
        sql: String,
    },
    /// Logical view dropped.
    DropView {
        /// View name.
        name: String,
    },
    /// Secondary index created.
    CreateIndex {
        /// Owning table.
        table: String,
        /// Index name.
        name: String,
        /// Indexed column positions.
        columns: Vec<usize>,
        /// Uniqueness constraint.
        unique: bool,
    },
    /// Secondary index dropped.
    DropIndex {
        /// Owning table.
        table: String,
        /// Index name.
        name: String,
    },
    /// Primary-key index attached after creation (UNIQUE index on a
    /// keyless table).
    AddPk {
        /// Owning table.
        table: String,
        /// Key column positions.
        columns: Vec<usize>,
    },
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(r: &mut impl Read) -> Result<String, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|_| corrupt("truncated string length"))?;
    let len = u32::from_le_bytes(b);
    if len > MAX_WAL_TEXT {
        return Err(corrupt(format!("string length {len} exceeds cap")));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)
        .map_err(|_| corrupt("truncated string"))?;
    String::from_utf8(bytes).map_err(|_| corrupt("string is not UTF-8"))
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u64(r: &mut impl Read) -> Result<u64, EngineError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|_| corrupt("truncated u64"))?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn put_positions(buf: &mut Vec<u8>, cols: &[usize]) {
    buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for &c in cols {
        buf.extend_from_slice(&(c as u32).to_le_bytes());
    }
}

pub(crate) fn get_positions(r: &mut impl Read) -> Result<Vec<usize>, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|_| corrupt("truncated position count"))?;
    let n = u32::from_le_bytes(b);
    if n > frame::MAX_FRAME_COLS {
        return Err(corrupt(format!("position count {n} exceeds column cap")));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        r.read_exact(&mut b)
            .map_err(|_| corrupt("truncated position"))?;
        out.push(u32::from_le_bytes(b) as usize);
    }
    Ok(out)
}

/// Key-column positions must name columns of their table: read from disk
/// unchecked, a position past the last column indexes rows out of bounds
/// when the first key is built. The error is the offending position.
pub(crate) fn check_positions(positions: &[usize], width: usize) -> Result<(), String> {
    match positions.iter().find(|&&c| c >= width) {
        Some(c) => Err(format!("key column {c} of a {width}-column table")),
        None => Ok(()),
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Boolean => 0,
        DataType::Integer => 1,
        DataType::Double => 2,
        DataType::Varchar => 3,
        DataType::Date => 4,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType, EngineError> {
    Ok(match tag {
        0 => DataType::Boolean,
        1 => DataType::Integer,
        2 => DataType::Double,
        3 => DataType::Varchar,
        4 => DataType::Date,
        other => return Err(corrupt(format!("unknown type tag {other}"))),
    })
}

/// Serialize a column list (shared with the catalog meta encoder).
pub(crate) fn put_columns(buf: &mut Vec<u8>, columns: &[Column]) {
    buf.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for c in columns {
        put_str(buf, &c.name);
        buf.push(type_tag(c.ty));
        buf.push(u8::from(c.not_null));
    }
}

/// Deserialize a column list (shared with the catalog meta decoder).
pub(crate) fn get_columns(r: &mut impl Read) -> Result<Vec<Column>, EngineError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|_| corrupt("truncated column count"))?;
    let n = u32::from_le_bytes(b);
    if n > frame::MAX_FRAME_COLS {
        return Err(corrupt(format!("column count {n} exceeds cap")));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = get_str(r)?;
        let mut two = [0u8; 2];
        r.read_exact(&mut two)
            .map_err(|_| corrupt("truncated column flags"))?;
        out.push(Column {
            name,
            ty: type_from_tag(two[0])?,
            not_null: match two[1] {
                0 => false,
                1 => true,
                other => return Err(corrupt(format!("column not-null byte {other}"))),
            },
        });
    }
    Ok(out)
}

impl WalRecord {
    /// Encode this record's payload (no framing).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Commit => buf.push(TAG_COMMIT),
            WalRecord::Insert { table, row } => {
                buf.push(TAG_INSERT);
                put_str(buf, table);
                frame::encode_row(buf, row);
            }
            WalRecord::Delete { table, row_id } => {
                buf.push(TAG_DELETE);
                put_str(buf, table);
                put_u64(buf, *row_id);
            }
            WalRecord::Update { table, row_id, row } => {
                buf.push(TAG_UPDATE);
                put_str(buf, table);
                put_u64(buf, *row_id);
                frame::encode_row(buf, row);
            }
            WalRecord::Truncate { table } => {
                buf.push(TAG_TRUNCATE);
                put_str(buf, table);
            }
            WalRecord::Compact { table } => {
                buf.push(TAG_COMPACT);
                put_str(buf, table);
            }
            WalRecord::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                buf.push(TAG_CREATE_TABLE);
                put_str(buf, name);
                put_columns(buf, columns);
                put_positions(buf, primary_key);
            }
            WalRecord::DropTable { name } => {
                buf.push(TAG_DROP_TABLE);
                put_str(buf, name);
            }
            WalRecord::CreateView { name, sql } => {
                buf.push(TAG_CREATE_VIEW);
                put_str(buf, name);
                put_str(buf, sql);
            }
            WalRecord::DropView { name } => {
                buf.push(TAG_DROP_VIEW);
                put_str(buf, name);
            }
            WalRecord::CreateIndex {
                table,
                name,
                columns,
                unique,
            } => {
                buf.push(TAG_CREATE_INDEX);
                put_str(buf, table);
                put_str(buf, name);
                put_positions(buf, columns);
                buf.push(u8::from(*unique));
            }
            WalRecord::DropIndex { table, name } => {
                buf.push(TAG_DROP_INDEX);
                put_str(buf, table);
                put_str(buf, name);
            }
            WalRecord::AddPk { table, columns } => {
                buf.push(TAG_ADD_PK);
                put_str(buf, table);
                put_positions(buf, columns);
            }
        }
    }

    /// Decode one payload produced by [`encode`](WalRecord::encode).
    /// Trailing payload bytes are corruption.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, EngineError> {
        let mut r = Cursor::new(payload);
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)
            .map_err(|_| corrupt("empty record"))?;
        let rec = match tag[0] {
            TAG_COMMIT => WalRecord::Commit,
            TAG_INSERT => WalRecord::Insert {
                table: get_str(&mut r)?,
                row: frame::decode_row(&mut r)?,
            },
            TAG_DELETE => WalRecord::Delete {
                table: get_str(&mut r)?,
                row_id: get_u64(&mut r)?,
            },
            TAG_UPDATE => WalRecord::Update {
                table: get_str(&mut r)?,
                row_id: get_u64(&mut r)?,
                row: frame::decode_row(&mut r)?,
            },
            TAG_TRUNCATE => WalRecord::Truncate {
                table: get_str(&mut r)?,
            },
            TAG_COMPACT => WalRecord::Compact {
                table: get_str(&mut r)?,
            },
            TAG_CREATE_TABLE => {
                let name = get_str(&mut r)?;
                let columns = get_columns(&mut r)?;
                let primary_key = get_positions(&mut r)?;
                check_positions(&primary_key, columns.len()).map_err(corrupt)?;
                WalRecord::CreateTable {
                    name,
                    columns,
                    primary_key,
                }
            }
            TAG_DROP_TABLE => WalRecord::DropTable {
                name: get_str(&mut r)?,
            },
            TAG_CREATE_VIEW => WalRecord::CreateView {
                name: get_str(&mut r)?,
                sql: get_str(&mut r)?,
            },
            TAG_DROP_VIEW => WalRecord::DropView {
                name: get_str(&mut r)?,
            },
            TAG_CREATE_INDEX => {
                let table = get_str(&mut r)?;
                let name = get_str(&mut r)?;
                let columns = get_positions(&mut r)?;
                let mut b = [0u8; 1];
                r.read_exact(&mut b)
                    .map_err(|_| corrupt("truncated unique flag"))?;
                let unique = match b[0] {
                    0 => false,
                    1 => true,
                    other => return Err(corrupt(format!("unique byte {other}"))),
                };
                WalRecord::CreateIndex {
                    table,
                    name,
                    columns,
                    unique,
                }
            }
            TAG_DROP_INDEX => WalRecord::DropIndex {
                table: get_str(&mut r)?,
                name: get_str(&mut r)?,
            },
            TAG_ADD_PK => WalRecord::AddPk {
                table: get_str(&mut r)?,
                columns: get_positions(&mut r)?,
            },
            other => return Err(corrupt(format!("unknown record tag {other}"))),
        };
        if r.position() != payload.len() as u64 {
            return Err(corrupt("trailing bytes after record payload"));
        }
        Ok(rec)
    }
}

/// Cumulative WAL counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Redo records logged (commit markers excluded).
    pub records: u64,
    /// Commit points (markers actually written; empty commits skipped).
    pub commits: u64,
    /// fsyncs issued (file and directory).
    pub syncs: u64,
    /// Bytes appended to the log since it was opened or last reset.
    pub bytes_written: u64,
    /// Transient-error I/O retries, process-wide (snapshot of
    /// [`io::retries`] at the time of the stats call).
    pub retries: u64,
    /// Segment rotations performed since open.
    pub rotations: u64,
    /// Live segment files (1 after a reset; grows with each rotation).
    pub segments: u64,
    /// Whether the log is poisoned (a commit-path write or fsync failed;
    /// the database is in read-only degraded mode).
    pub poisoned: bool,
}

#[derive(Debug)]
struct WalInner {
    file: FileHandle,
    /// Index of the active segment (1-based; 0 = legacy `wal.log`).
    seg_index: u64,
    /// Bytes in the active segment, including any appended after an
    /// errored write (approximation is fine: the log poisons on error).
    seg_size: u64,
    /// Epoch written into segment headers (set by [`Wal::reset`]).
    epoch: u64,
    /// Encoded frames not yet written to the file.
    buf: Vec<u8>,
    /// Records logged since the last commit marker.
    pending: bool,
    /// I/O error from an opportunistic mid-statement flush, surfaced at
    /// the next [`Wal::commit`].
    deferred: Option<EngineError>,
    /// Why the log refuses further commits, once a commit-path write or
    /// fsync has failed.
    poisoned: Option<String>,
    stats: WalStats,
}

impl WalInner {
    fn poison(&mut self, why: String) {
        self.buf.clear();
        self.pending = false;
        self.stats.poisoned = true;
        self.poisoned.get_or_insert(why);
    }
}

/// A write-ahead log handle over a directory of segment files. Shared as
/// `Arc<Wal>` by every table of a durable catalog; interior mutability
/// makes [`log`](Wal::log) callable from `&self` hooks deep inside row
/// mutations.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    sync_on_commit: bool,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
}

/// Path of segment `index` inside `dir` (`wal.0001.log`, …; index 0 is
/// the legacy single-file name).
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    if index == 0 {
        dir.join(LEGACY_WAL_FILE)
    } else {
        dir.join(format!("wal.{index:04}.log"))
    }
}

/// Segment files present in `dir`, as `(index, path)` sorted by index.
/// A legacy `wal.log` sorts first as index 0.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, EngineError> {
    let entries = match io::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("list", dir, e)),
    };
    let mut segs = Vec::new();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == LEGACY_WAL_FILE {
            segs.push((0, path));
        } else if let Some(digits) = name
            .strip_prefix("wal.")
            .and_then(|rest| rest.strip_suffix(".log"))
        {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(idx) = digits.parse::<u64>() {
                    segs.push((idx, path));
                }
            }
        }
    }
    segs.sort_by_key(|&(idx, _)| idx);
    Ok(segs)
}

impl Wal {
    /// Open the log in `dir`, attaching to the highest existing segment
    /// (creating `wal.0001.log` if none exist). The files are not
    /// modified until [`reset`](Wal::reset) — callers replay first, then
    /// reset with a fresh epoch.
    pub fn open(
        dir: impl Into<PathBuf>,
        sync_on_commit: bool,
        segment_bytes: u64,
    ) -> Result<Wal, EngineError> {
        let dir = dir.into();
        let segs = list_segments(&dir)?;
        let (seg_index, path) = match segs.last() {
            Some((idx, path)) => (*idx, path.clone()),
            None => (1, segment_path(&dir, 1)),
        };
        let mut file =
            io::open(&path, OpenMode::ReadWrite).map_err(|e| io_err("open", &path, e))?;
        let seg_size = file.len().map_err(|e| io_err("stat", &path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, e))?;
        Ok(Wal {
            dir,
            sync_on_commit,
            segment_bytes,
            inner: Mutex::new(WalInner {
                file,
                seg_index,
                seg_size,
                epoch: 0,
                buf: Vec::new(),
                pending: false,
                deferred: None,
                poisoned: None,
                stats: WalStats {
                    segments: segs.len().max(1) as u64,
                    ..WalStats::default()
                },
            }),
        })
    }

    /// Discard all segments and start a fresh epoch: higher segments (and
    /// a legacy `wal.log`) are removed *first*, then segment 1 is
    /// truncated, given the new header, fsynced, and its directory entry
    /// fsynced. Called by every checkpoint after the catalog meta rename;
    /// the remove-first ordering keeps every crash window epoch-uniform.
    pub fn reset(&self, epoch: u64) -> Result<(), EngineError> {
        let mut inner = self.lock();
        if let Some(why) = &inner.poisoned {
            return Err(EngineError::execution(format!("WAL is poisoned: {why}")));
        }
        inner.buf.clear();
        inner.pending = false;
        inner.deferred = None;
        for (idx, path) in list_segments(&self.dir)?.into_iter().rev() {
            if idx != 1 {
                match io::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err("remove segment", &path, e)),
                }
            }
        }
        let path = segment_path(&self.dir, 1);
        let mut file =
            io::open(&path, OpenMode::ReadWrite).map_err(|e| io_err("open", &path, e))?;
        file.set_len(0).map_err(|e| io_err("truncate", &path, e))?;
        write_header(&mut file, epoch).map_err(|e| io_err("header", &path, e))?;
        file.sync_data().map_err(|e| io_err("fsync", &path, e))?;
        io::sync_dir(&self.dir).map_err(|e| io_err("fsync dir", &self.dir, e))?;
        inner.file = file;
        inner.seg_index = 1;
        inner.seg_size = WAL_HEADER as u64;
        inner.epoch = epoch;
        inner.stats.syncs += 2;
        inner.stats.bytes_written = WAL_HEADER as u64;
        inner.stats.segments = 1;
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the log has refused a commit and entered the poisoned
    /// (read-only degraded) state.
    pub fn poisoned(&self) -> bool {
        self.lock().poisoned.is_some()
    }

    /// Append one framed record to the in-memory buffer. Never blocks on
    /// I/O and never fails: oversized buffers are opportunistically
    /// written through, with any I/O error deferred to the next
    /// [`commit`](Wal::commit) — the hook sites inside row mutations have
    /// no error channel. A poisoned log drops the record (the session
    /// layer rejects the owning statement before acknowledging it).
    pub fn log(&self, rec: &WalRecord) {
        let mut inner = self.lock();
        if inner.poisoned.is_some() {
            return;
        }
        let start = inner.buf.len();
        inner.buf.extend_from_slice(&[0u8; 8]); // frame placeholder
        let rec_start = inner.buf.len();
        {
            let WalInner { buf, .. } = &mut *inner;
            rec.encode(buf);
        }
        let payload_len = (inner.buf.len() - rec_start) as u32;
        let crc = crc32(&inner.buf[rec_start..]);
        inner.buf[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        inner.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        inner.pending = true;
        if !matches!(rec, WalRecord::Commit) {
            inner.stats.records += 1;
        }
        if inner.buf.len() >= FLUSH_THRESHOLD {
            if let Err(e) = Self::write_buf(&mut inner) {
                inner.deferred.get_or_insert(e);
            }
        }
    }

    fn write_buf(inner: &mut WalInner) -> Result<(), EngineError> {
        if inner.buf.is_empty() {
            return Ok(());
        }
        let buf = std::mem::take(&mut inner.buf);
        let res = inner.file.write_all(&buf);
        inner.stats.bytes_written += buf.len() as u64;
        inner.seg_size += buf.len() as u64;
        res.map_err(|e| io_err("append", inner.file.path(), e))
    }

    /// Close the current statement: append a [`WalRecord::Commit`] marker,
    /// write everything buffered, and (when configured) fsync. A no-op
    /// when nothing was logged since the last commit. Returns whether a
    /// commit point was actually written.
    ///
    /// Any write or fsync failure here — including a deferred error from
    /// an opportunistic mid-statement flush — poisons the log: the
    /// buffered records are gone and a torn frame may be on disk, so no
    /// later commit can be safely acknowledged. After a successful commit
    /// the log rotates if the active segment reached the size bound; a
    /// failed rotation is tolerated (retried at the next commit).
    pub fn commit(&self) -> Result<bool, EngineError> {
        let mut inner = self.lock();
        if let Some(why) = &inner.poisoned {
            return Err(EngineError::execution(format!(
                "WAL is poisoned ({why}); database is in read-only degraded mode"
            )));
        }
        if let Some(e) = inner.deferred.take() {
            inner.poison(e.to_string());
            return Err(e);
        }
        if !inner.pending {
            return Ok(false);
        }
        let start = inner.buf.len();
        inner.buf.extend_from_slice(&[0u8; 8]);
        let rec_start = inner.buf.len();
        {
            let WalInner { buf, .. } = &mut *inner;
            WalRecord::Commit.encode(buf);
        }
        let payload_len = (inner.buf.len() - rec_start) as u32;
        let crc = crc32(&inner.buf[rec_start..]);
        inner.buf[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        inner.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        if let Err(e) = Self::write_buf(&mut inner) {
            inner.poison(e.to_string());
            return Err(e);
        }
        if self.sync_on_commit {
            if let Err(e) = inner.file.sync_data() {
                let e = io_err("fsync", inner.file.path(), e);
                inner.poison(e.to_string());
                return Err(e);
            }
            inner.stats.syncs += 1;
        }
        inner.pending = false;
        inner.stats.commits += 1;
        if inner.seg_size >= self.segment_bytes {
            self.rotate(&mut inner);
        }
        Ok(true)
    }

    /// Best-effort rotation to the next segment. On any failure the log
    /// stays on the current (already durable) segment and retries after
    /// the next commit.
    fn rotate(&self, inner: &mut WalInner) {
        let next = inner.seg_index + 1;
        let path = segment_path(&self.dir, next);
        let mut file = match io::open(&path, OpenMode::Create) {
            Ok(f) => f,
            Err(_) => return,
        };
        let epoch = inner.epoch;
        if write_header(&mut file, epoch).is_err()
            || file.sync_data().is_err()
            || io::sync_dir(&self.dir).is_err()
        {
            let _ = io::remove_file(&path);
            return;
        }
        inner.file = file;
        inner.seg_index = next;
        inner.seg_size = WAL_HEADER as u64;
        inner.stats.syncs += 2;
        inner.stats.bytes_written += WAL_HEADER as u64;
        inner.stats.rotations += 1;
        inner.stats.segments += 1;
    }

    /// Cumulative counters (plus a snapshot of the process-wide
    /// transient-retry counter).
    pub fn stats(&self) -> WalStats {
        let mut stats = self.lock().stats;
        stats.retries = io::retries();
        stats
    }

    /// Replay the segmented log in `dir`: `(epoch, committed records,
    /// total file bytes)`. Returns `None` when no segment exists or the
    /// first one is too short to hold a header (a crash before the first
    /// reset completed). Segments are replayed in order; the epoch is
    /// taken from the first segment and scanning stops at the first
    /// segment whose epoch differs (stale leftovers from an interrupted
    /// reset). Torn tails end the replay at the last committed record,
    /// but are tolerated only in the final segment — a torn frame in an
    /// earlier segment is reported as corruption. A record that passes
    /// its checksum but fails to decode is always corruption.
    pub fn replay(dir: &Path) -> Result<Option<(u64, Vec<WalRecord>, u64)>, EngineError> {
        let segs = list_segments(dir)?;
        if segs.is_empty() {
            return Ok(None);
        }
        let last = segs.len() - 1;
        let mut log_epoch = None;
        let mut records = Vec::new();
        let mut committed = 0usize;
        let mut total = 0u64;
        for (i, (_, path)) in segs.iter().enumerate() {
            let bytes = match io::read(path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("read", path, e)),
            };
            total += bytes.len() as u64;
            if bytes.len() < WAL_HEADER {
                if log_epoch.is_none() {
                    // Crash before the first reset finished writing the
                    // first header: nothing to replay.
                    return Ok(None);
                }
                if i < last {
                    return Err(corrupt(format!(
                        "segment {} is shorter than its header",
                        path.display()
                    )));
                }
                break;
            }
            if &bytes[..8] != WAL_MAGIC {
                return Err(corrupt(format!("bad WAL magic in {}", path.display())));
            }
            let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced 8 bytes"));
            match log_epoch {
                None => log_epoch = Some(epoch),
                Some(e) if e != epoch => break,
                Some(_) => {}
            }
            let mut off = WAL_HEADER;
            while bytes.len() - off >= 8 {
                let len =
                    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("sliced 4 bytes"))
                        as usize;
                let crc =
                    u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("sliced 4 bytes"));
                let torn = match bytes.get(off + 8..off + 8 + len) {
                    None => true, // record extends past EOF
                    Some(payload) if crc32(payload) != crc => true,
                    Some(payload) => {
                        let rec = WalRecord::decode(payload)?;
                        off += 8 + len;
                        if matches!(rec, WalRecord::Commit) {
                            committed = records.len();
                        } else {
                            records.push(rec);
                        }
                        false
                    }
                };
                if torn {
                    if i < last {
                        return Err(corrupt(format!(
                            "torn frame in non-final segment {}",
                            path.display()
                        )));
                    }
                    break;
                }
            }
            if i < last && bytes.len() - off != 0 && bytes.len() - off < 8 {
                return Err(corrupt(format!(
                    "torn frame in non-final segment {}",
                    path.display()
                )));
            }
        }
        let Some(epoch) = log_epoch else {
            return Ok(None);
        };
        records.truncate(committed);
        Ok(Some((epoch, records, total)))
    }
}

/// Seek to 0 and write the `magic + epoch` header.
fn write_header(file: &mut FileHandle, epoch: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(0))?;
    file.write_all(WAL_MAGIC)?;
    file.write_all(&epoch.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::io::{set_fault_plan, FaultKind, FaultPlan, Trigger};
    use std::sync::Arc;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("openivm-waltest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![
                    Column::not_null("k", DataType::Varchar),
                    Column::new("v", DataType::Integer),
                ],
                primary_key: vec![0],
            },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![Value::from("a"), Value::Integer(1)],
            },
            WalRecord::Update {
                table: "t".into(),
                row_id: 0,
                row: vec![Value::from("a"), Value::Integer(2)],
            },
            WalRecord::Delete {
                table: "t".into(),
                row_id: 0,
            },
            WalRecord::Truncate { table: "t".into() },
            WalRecord::Compact { table: "t".into() },
            WalRecord::CreateIndex {
                table: "t".into(),
                name: "ix".into(),
                columns: vec![1],
                unique: false,
            },
            WalRecord::DropIndex {
                table: "t".into(),
                name: "ix".into(),
            },
            WalRecord::AddPk {
                table: "t".into(),
                columns: vec![0],
            },
            WalRecord::CreateView {
                name: "v".into(),
                sql: "SELECT k FROM t".into(),
            },
            WalRecord::DropView { name: "v".into() },
            WalRecord::DropTable { name: "t".into() },
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(WalRecord::decode(&buf).unwrap(), rec, "{rec:?}");
            // Every strict prefix is a clean error, never a panic.
            for cut in 0..buf.len() {
                assert!(WalRecord::decode(&buf[..cut]).is_err(), "{rec:?} cut {cut}");
            }
            // Trailing garbage is rejected too.
            buf.push(0);
            assert!(WalRecord::decode(&buf).is_err());
        }
    }

    #[test]
    fn log_commit_replay() {
        let dir = temp_dir("basic");
        let wal = Wal::open(&dir, true, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(3).unwrap();
        let recs = sample_records();
        for r in &recs[..4] {
            wal.log(r);
        }
        assert!(wal.commit().unwrap());
        assert!(!wal.commit().unwrap(), "empty commit is skipped");
        for r in &recs[4..] {
            wal.log(r);
        }
        assert!(wal.commit().unwrap());
        let (epoch, replayed, bytes) = Wal::replay(&dir).unwrap().unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(replayed, recs);
        assert!(bytes > WAL_HEADER as u64);
        let stats = wal.stats();
        assert_eq!(stats.records, recs.len() as u64);
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.rotations, 0);
        assert!(!stats.poisoned);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let dir = temp_dir("uncommitted");
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(0).unwrap();
        wal.log(&WalRecord::Truncate { table: "a".into() });
        wal.commit().unwrap();
        // Logged but never committed: must not replay. Force the bytes to
        // disk without a commit marker via the internal write path.
        wal.log(&WalRecord::Truncate { table: "b".into() });
        {
            let mut inner = wal.lock();
            Wal::write_buf(&mut inner).unwrap();
        }
        let (_, replayed, _) = Wal::replay(&dir).unwrap().unwrap();
        assert_eq!(replayed, vec![WalRecord::Truncate { table: "a".into() }]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_recovers_committed_prefix_at_every_cut() {
        let dir = temp_dir("torn");
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(1).unwrap();
        let recs = sample_records();
        // One commit per record → the committed prefix grows record by
        // record and every cut point must recover some exact prefix.
        for r in &recs {
            wal.log(r);
            wal.commit().unwrap();
        }
        let seg = segment_path(&dir, 1);
        let full = std::fs::read(&seg).unwrap();
        let mut prev_len = 0usize;
        for cut in 0..=full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            match Wal::replay(&dir).unwrap() {
                None => assert!(cut < WAL_HEADER, "header cut {cut}"),
                Some((epoch, replayed, _)) => {
                    assert_eq!(epoch, 1);
                    assert_eq!(replayed, recs[..replayed.len()], "cut {cut}");
                    assert!(replayed.len() >= prev_len, "prefix must be monotone");
                    prev_len = replayed.len();
                }
            }
        }
        assert_eq!(prev_len, recs.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn valid_crc_bad_payload_is_real_corruption() {
        let dir = temp_dir("corrupt");
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(0).unwrap();
        drop(wal);
        // Hand-craft a record with a correct checksum over garbage.
        let seg = segment_path(&dir, 1);
        let payload = [0xEEu8, 1, 2, 3];
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&seg, &bytes).unwrap();
        let err = Wal::replay(&dir).unwrap_err();
        assert!(err.to_string().contains("unknown record tag"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reset_discards_history_and_bumps_epoch() {
        let dir = temp_dir("reset");
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(0).unwrap();
        wal.log(&WalRecord::Truncate { table: "x".into() });
        wal.commit().unwrap();
        wal.reset(1).unwrap();
        let (epoch, replayed, _) = Wal::replay(&dir).unwrap().unwrap();
        assert_eq!(epoch, 1);
        assert!(replayed.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_bounds_segments_and_reset_recycles_them() {
        let dir = temp_dir("rotate");
        // Tiny bound: every commit rotates once past the header.
        let wal = Wal::open(&dir, false, 64).unwrap();
        wal.reset(7).unwrap();
        let recs = sample_records();
        for r in &recs {
            wal.log(r);
            wal.commit().unwrap();
        }
        let stats = wal.stats();
        assert!(stats.rotations >= 2, "expected rotations, got {stats:?}");
        assert_eq!(stats.segments, stats.rotations + 1);
        let on_disk = list_segments(&dir).unwrap();
        assert_eq!(on_disk.len() as u64, stats.segments);
        for (_, path) in &on_disk {
            assert!(
                std::fs::metadata(path).unwrap().len() <= 64 + 512,
                "segment {} exceeds bound by more than one commit",
                path.display()
            );
        }
        // Replay concatenates the segments in order.
        let (epoch, replayed, _) = Wal::replay(&dir).unwrap().unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(replayed, recs);
        // A checkpoint-driven reset recycles every segment but the first.
        wal.reset(8).unwrap();
        let on_disk = list_segments(&dir).unwrap();
        assert_eq!(on_disk.len(), 1);
        assert_eq!(on_disk[0].1, segment_path(&dir, 1));
        assert_eq!(wal.stats().segments, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_frame_in_non_final_segment_is_corruption() {
        let dir = temp_dir("torn-mid");
        let wal = Wal::open(&dir, false, 64).unwrap();
        wal.reset(1).unwrap();
        for r in &sample_records() {
            wal.log(r);
            wal.commit().unwrap();
        }
        assert!(wal.stats().segments >= 2);
        drop(wal);
        // Truncate the FIRST segment mid-frame: with later segments
        // present this cannot be a crash tail, so replay must refuse.
        let seg1 = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, &bytes[..bytes.len() - 3]).unwrap();
        let err = Wal::replay(&dir).unwrap_err();
        assert!(err.to_string().contains("non-final segment"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_single_file_layout_replays_as_segment_zero() {
        let dir = temp_dir("legacy");
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(5).unwrap();
        wal.log(&WalRecord::Truncate { table: "t".into() });
        wal.commit().unwrap();
        drop(wal);
        // Rebuild the pre-segmentation layout: one `wal.log`.
        std::fs::rename(segment_path(&dir, 1), dir.join(LEGACY_WAL_FILE)).unwrap();
        let (epoch, replayed, _) = Wal::replay(&dir).unwrap().unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(replayed, vec![WalRecord::Truncate { table: "t".into() }]);
        // A reset from the segmented layout removes the legacy file.
        let wal = Wal::open(&dir, false, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(6).unwrap();
        assert!(!dir.join(LEGACY_WAL_FILE).exists());
        assert!(segment_path(&dir, 1).exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_failure_poisons_the_log() {
        let _serial = io::test_plan_serial();
        let dir = temp_dir("poison");
        let wal = Wal::open(&dir, true, DEFAULT_SEGMENT_BYTES).unwrap();
        wal.reset(1).unwrap();
        wal.log(&WalRecord::Truncate { table: "t".into() });
        wal.commit().unwrap();
        wal.log(&WalRecord::Truncate { table: "u".into() });
        let prev = set_fault_plan(Some(Arc::new(FaultPlan::new().with_rule(
            FaultKind::FsyncFail,
            "openivm-waltest",
            Trigger::Once(1),
        ))));
        let err = wal.commit().unwrap_err();
        set_fault_plan(prev);
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(wal.poisoned());
        assert!(wal.stats().poisoned);
        // Further commits fail cleanly, log() is a harmless no-op, and
        // reset (a checkpoint) refuses too.
        wal.log(&WalRecord::Truncate { table: "v".into() });
        let err = wal.commit().unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        assert!(wal.reset(2).is_err());
        // No acknowledged-commit loss: the acknowledged "t" commit must
        // replay. The unacknowledged "u" frame reached the file but was
        // never fsynced — whether it survives is exactly the uncertainty
        // poisoning exists to stop acknowledging, so either way is safe.
        let (_, replayed, _) = Wal::replay(&dir).unwrap().unwrap();
        assert!(!replayed.is_empty());
        assert_eq!(replayed[0], WalRecord::Truncate { table: "t".into() });
        let _ = std::fs::remove_dir_all(dir);
    }
}

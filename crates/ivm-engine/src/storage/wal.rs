//! ARIES-lite write-ahead log: logical redo records + committed-prefix
//! replay, in one file.
//!
//! The log is the file `wal.log` in the data directory: a header
//! (`magic`, `epoch`) followed by CRC-framed records ([`write_record`]):
//!
//! ```text
//! wal.log := MAGIC epoch:u64 record*
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
//! one durability point per statement, many records per write. The file
//! grows until the next checkpoint; `Database::set_auto_checkpoint`
//! bounds it.
//!
//! The *epoch* ties the log to the checkpoint it extends: every
//! checkpoint bumps the epoch, rewrites `catalog.meta` (atomic rename),
//! and resets the log — truncates it, writes the new epoch's header, and
//! fsyncs the file and the directory. Replay reads the header before any
//! record: a log older than the catalog meta is discarded — the crash
//! window between the meta rename and the log reset is thereby safe —
//! and one newer than it is corruption.
//!
//! **Replay streams.** `Wal::replay` reads the file through one
//! buffered reader and holds only the records since the last commit
//! marker: each committed group is handed on by value as soon as its
//! marker is read. Recovery memory is one atomic batch, not the log.
//!
//! **Poisoning.** Any write or fsync failure inside [`Wal::commit`] or
//! [`Wal::reset`] marks the log poisoned: the buffered records were
//! consumed and a torn frame may sit on disk — or, after a failed reset,
//! the header no longer matches the published meta — so acknowledging
//! any later commit would risk silent loss. A poisoned log refuses
//! further commits (and resets) with a clean error; the session layer
//! turns that into read-only degraded mode. Torn tails (truncated
//! record, checksum mismatch) end replay at the last intact committed
//! record — that is a *normal* crash artifact, not an error. A record
//! whose checksum verifies but whose payload does not decode is real
//! corruption and comes back as a clean [`EngineError`].

use std::io::{BufReader, Cursor, Read, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::error::EngineError;
use crate::schema::Column;
use crate::storage::checksum::{write_record, Framed, RecordReader};
use crate::storage::frame;
use crate::storage::io::{self, FileHandle, OpenMode};
use crate::types::DataType;
use crate::value::Value;

/// WAL file magic (and format version).
pub const WAL_MAGIC: &[u8; 8] = b"OIVMWAL1";

/// Header bytes: magic + epoch.
pub const WAL_HEADER: usize = 16;

/// File name of the log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Bytes [`Wal::replay`] reads from the file at a time.
const REPLAY_BUFFER: usize = 64 << 10;

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
    /// Always 0: the log is one file and never rotates. The benchmark
    /// reads the field, so it stays until the benchmark is re-based.
    pub rotations: u64,
    /// Whether the log is poisoned (a commit or reset write or fsync
    /// failed; the database is in read-only degraded mode).
    pub poisoned: bool,
}

#[derive(Debug)]
struct WalInner {
    file: FileHandle,
    /// Encoded frames not yet written to the file.
    buf: Vec<u8>,
    /// Records logged since the last commit marker.
    pending: bool,
    /// I/O error from an opportunistic mid-statement flush, surfaced at
    /// the next [`Wal::commit`].
    deferred: Option<EngineError>,
    /// Why the log refuses further commits, once a commit or reset write
    /// or fsync has failed.
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

/// A write-ahead log handle over the file `wal.log` of a data directory.
/// Shared as `Arc<Wal>` by every table of a durable catalog; interior
/// mutability makes [`log`](Wal::log) callable from `&self` hooks deep
/// inside row mutations.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    sync_on_commit: bool,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Open the log in `dir`, creating an empty `wal.log` if there is
    /// none. The file is not modified until [`reset`](Wal::reset) —
    /// callers replay first, then reset with a fresh epoch.
    pub(crate) fn open(dir: impl Into<PathBuf>, sync_on_commit: bool) -> Result<Wal, EngineError> {
        let dir = dir.into();
        let path = dir.join(WAL_FILE);
        let mut file =
            io::open(&path, OpenMode::ReadWrite).map_err(|e| io_err("open", &path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, e))?;
        Ok(Wal {
            dir,
            sync_on_commit,
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                pending: false,
                deferred: None,
                poisoned: None,
                stats: WalStats::default(),
            }),
        })
    }

    /// Start a fresh epoch: truncate the file, write the new header, and
    /// fsync the file and the directory. Called by every checkpoint after
    /// the catalog meta rename, so a failure poisons the log: its header
    /// may no longer match the published meta, and recovery would discard
    /// any commit appended after it.
    pub fn reset(&self, epoch: u64) -> Result<(), EngineError> {
        let mut inner = self.lock();
        if let Some(why) = &inner.poisoned {
            return Err(EngineError::execution(format!("WAL is poisoned: {why}")));
        }
        inner.buf.clear();
        inner.pending = false;
        inner.deferred = None;
        if let Err(e) = write_header(&mut inner.file, &self.dir, epoch) {
            inner.poison(e.to_string());
            return Err(e);
        }
        inner.stats.syncs += 2;
        inner.stats.bytes_written = WAL_HEADER as u64;
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
        write_record(&mut inner.buf, |buf| rec.encode(buf));
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
    /// later commit can be safely acknowledged.
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
        write_record(&mut inner.buf, |buf| WalRecord::Commit.encode(buf));
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
        Ok(true)
    }

    /// Cumulative counters (plus a snapshot of the process-wide
    /// transient-retry counter).
    pub fn stats(&self) -> WalStats {
        let mut stats = self.lock().stats;
        stats.retries = io::retries();
        stats
    }

    /// Replay the log in `dir` onto the checkpoint of `epoch`: hand each
    /// committed group of records, in log order and by value, to `apply`,
    /// holding only the records since the last commit marker. Returns the
    /// bytes scanned — 0 when nothing was replayed: the file is missing
    /// or shorter than its header (a crash before the first reset
    /// finished), or its epoch is older than `epoch` (a crash between the
    /// meta rename and the log reset; its effects are inside the
    /// checkpoint). A bad magic or a newer epoch is corruption, found
    /// before any record is applied. A torn tail ends the replay at the
    /// last commit marker; a record that passes its checksum but fails to
    /// decode is corruption.
    pub(crate) fn replay(
        dir: &Path,
        epoch: u64,
        mut apply: impl FnMut(Vec<WalRecord>) -> Result<(), EngineError>,
    ) -> Result<u64, EngineError> {
        let path = dir.join(WAL_FILE);
        let mut file = match io::open(&path, OpenMode::ReadOnly) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(io_err("open", &path, e)),
        };
        let len = file.len().map_err(|e| io_err("stat", &path, e))?;
        if len < WAL_HEADER as u64 {
            return Ok(0);
        }
        let mut src = BufReader::with_capacity(REPLAY_BUFFER, file);
        let mut header = [0u8; WAL_HEADER];
        src.read_exact(&mut header)
            .map_err(|e| io_err("read", &path, e))?;
        if &header[..8] != WAL_MAGIC {
            return Err(corrupt(format!("bad WAL magic in {}", path.display())));
        }
        let log_epoch = u64::from_le_bytes(header[8..].try_into().expect("sliced 8 bytes"));
        if log_epoch < epoch {
            return Ok(0);
        }
        if log_epoch > epoch {
            return Err(EngineError::execution(format!(
                "corrupt durable state: WAL epoch {log_epoch} is newer than catalog epoch {epoch}"
            )));
        }
        let mut frames = RecordReader::new(src, len - WAL_HEADER as u64);
        let mut group = Vec::new();
        while let Framed::Record(payload) =
            frames.next_record().map_err(|e| io_err("read", &path, e))?
        {
            match WalRecord::decode(payload)? {
                WalRecord::Commit => apply(std::mem::take(&mut group))?,
                rec => group.push(rec),
            }
        }
        Ok(len)
    }
}

/// Truncate the log to a `magic + epoch` header, then fsync the file and
/// its directory `dir`.
fn write_header(file: &mut FileHandle, dir: &Path, epoch: u64) -> Result<(), EngineError> {
    let path = &file.path().to_path_buf();
    let err = |op| move |e| io_err(op, path, e);
    file.set_len(0).map_err(err("truncate"))?;
    file.seek(SeekFrom::Start(0)).map_err(err("seek"))?;
    file.write_all(WAL_MAGIC)
        .and_then(|()| file.write_all(&epoch.to_le_bytes()))
        .map_err(err("header"))?;
    file.sync_data().map_err(err("fsync"))?;
    io::sync_dir(dir).map_err(|e| io_err("fsync dir", dir, e))
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

    /// The committed groups of `dir`'s log replayed onto `epoch`, and the
    /// bytes scanned.
    fn replayed(dir: &Path, epoch: u64) -> Result<(Vec<Vec<WalRecord>>, u64), EngineError> {
        let mut groups = Vec::new();
        let bytes = Wal::replay(dir, epoch, |group| {
            groups.push(group);
            Ok(())
        })?;
        Ok((groups, bytes))
    }

    #[test]
    fn log_commit_replay() {
        let dir = temp_dir("basic");
        let wal = Wal::open(&dir, true).unwrap();
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
        // One group per commit, in order.
        let (groups, bytes) = replayed(&dir, 3).unwrap();
        assert_eq!(groups, vec![recs[..4].to_vec(), recs[4..].to_vec()]);
        assert_eq!(bytes, std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        let stats = wal.stats();
        assert_eq!(stats.records, recs.len() as u64);
        assert_eq!(stats.commits, 2);
        assert!(!stats.poisoned);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let dir = temp_dir("uncommitted");
        let wal = Wal::open(&dir, false).unwrap();
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
        let (groups, _) = replayed(&dir, 0).unwrap();
        assert_eq!(
            groups,
            vec![vec![WalRecord::Truncate { table: "a".into() }]]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_recovers_committed_prefix_at_every_cut() {
        let dir = temp_dir("torn");
        let wal = Wal::open(&dir, false).unwrap();
        wal.reset(1).unwrap();
        let recs = sample_records();
        // One commit per record → the committed prefix grows record by
        // record and every cut point must recover some exact prefix.
        for r in &recs {
            wal.log(r);
            wal.commit().unwrap();
        }
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        let mut prev_len = 0usize;
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (groups, bytes) = replayed(&dir, 1).unwrap();
            let replayed: Vec<WalRecord> = groups.concat();
            if cut < WAL_HEADER {
                assert_eq!(bytes, 0, "header cut {cut}");
            }
            assert_eq!(replayed, recs[..replayed.len()], "cut {cut}");
            assert!(replayed.len() >= prev_len, "prefix must be monotone");
            prev_len = replayed.len();
        }
        assert_eq!(prev_len, recs.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Replay streams: a committed group is applied before the frames
    /// after it are read, so a bad record later in the log fails the
    /// replay after the groups before it.
    #[test]
    fn valid_crc_bad_payload_is_real_corruption() {
        let dir = temp_dir("corrupt");
        let wal = Wal::open(&dir, false).unwrap();
        wal.reset(0).unwrap();
        wal.log(&WalRecord::Truncate { table: "a".into() });
        wal.commit().unwrap();
        drop(wal);
        // Hand-craft a record with a correct checksum over garbage.
        let path = dir.join(WAL_FILE);
        let payload = [0xEEu8, 1, 2, 3];
        let mut bytes = std::fs::read(&path).unwrap();
        write_record(&mut bytes, |p| p.extend_from_slice(&payload));
        std::fs::write(&path, &bytes).unwrap();
        let mut applied = Vec::new();
        let err = Wal::replay(&dir, 0, |group| {
            applied.push(group);
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown record tag"), "{err}");
        assert_eq!(
            applied,
            vec![vec![WalRecord::Truncate { table: "a".into() }]]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reset_discards_history_and_bumps_epoch() {
        let dir = temp_dir("reset");
        let wal = Wal::open(&dir, false).unwrap();
        wal.reset(0).unwrap();
        wal.log(&WalRecord::Truncate { table: "x".into() });
        wal.commit().unwrap();
        wal.reset(1).unwrap();
        let (groups, bytes) = replayed(&dir, 1).unwrap();
        assert!(groups.is_empty());
        assert_eq!(bytes, WAL_HEADER as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_failure_poisons_the_log() {
        let _serial = io::test_plan_serial();
        let dir = temp_dir("poison");
        let wal = Wal::open(&dir, true).unwrap();
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
        let (groups, _) = replayed(&dir, 1).unwrap();
        assert_eq!(groups[0], vec![WalRecord::Truncate { table: "t".into() }]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A checkpoint resets the log after publishing its meta: a log whose
    /// reset failed keeps an epoch recovery would discard, so it must not
    /// acknowledge another commit.
    #[test]
    fn failed_reset_poisons_the_log() {
        let _serial = io::test_plan_serial();
        let dir = temp_dir("reset-fail");
        let wal = Wal::open(&dir, true).unwrap();
        wal.reset(1).unwrap();
        let prev = set_fault_plan(Some(Arc::new(FaultPlan::new().with_rule(
            FaultKind::FsyncFail,
            "reset-fail",
            Trigger::Once(1),
        ))));
        let err = wal.reset(2).unwrap_err();
        set_fault_plan(prev);
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(wal.poisoned());
        wal.log(&WalRecord::Truncate { table: "t".into() });
        assert!(wal.commit().is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}

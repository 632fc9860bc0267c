//! Durable-catalog orchestration: checkpoints to table files + WAL replay.
//!
//! A durable database directory holds:
//!
//! ```text
//! <dir>/catalog.meta     the last checkpoint: epoch, table metas, views
//! <dir>/table.E.N.dat    one table at rest: the N-th table file this
//!                        process wrote, by the checkpoint of epoch E
//! <dir>/wal.log          redo records since that checkpoint
//! ```
//!
//! All three are sequences of CRC-framed records ([`write_record`]).
//! Each record of a table file holds a chunk of about 64 KiB of
//! `slot:u64 row` tuples, rows encoded with [`frame::encode_row`]; a file
//! is named from an epoch and an ordinal, never from a table name.
//!
//! **Checkpoint**: each dirty table (detected via the process-wide
//! [`Table::generation`] counter stamped at the previous checkpoint) is
//! written to a *new* file — never over a file the current
//! `catalog.meta` names — and fsynced, then the directory is fsynced;
//! then `catalog.meta.tmp` is written, fsynced, and atomically renamed
//! over `catalog.meta` with a bumped epoch, the WAL is reset under the
//! new epoch, and last the table files the new meta does not name are
//! deleted. A crash at any point leaves either the old meta + old WAL
//! (epochs match → replay) or the new meta + old WAL (old epoch < new
//! epoch → WAL discarded; its effects are inside the new checkpoint).
//! A table file whose write fails is deleted at once. Files named by
//! neither meta are left by a checkpoint that failed or crashed later;
//! the next checkpoint deletes them, and `Durability::open` takes one.
//!
//! **Recovery** (`Durability::open`) loads every table by streaming its
//! file (each record checksum-verified as it is read), streams the
//! committed WAL prefix onto the catalog one committed statement at a
//! time, and immediately takes a recovery checkpoint.
//!
//! **I/O bound.** Tables are fully memory-resident, so table bytes cross
//! the disk boundary at exactly two moments and nothing is demand-paged
//! in between: `open` reads each file `catalog.meta` names once, and
//! `checkpoint` writes each dirty table's file once; a clean table is
//! never rewritten. Both stream through one record-sized buffer, whatever
//! the table size.
//!
//! Tables keep their physical slot layout across restarts: tuples carry
//! their slot id and table metas their total slot count, so row ids,
//! tombstone positions, and therefore scan order are bit-for-bit
//! identical after recovery — the property the crash harness asserts.

use std::collections::{HashMap, HashSet};
use std::io::{Cursor, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ivm_sql::ast::Statement;
use ivm_sql::Dialect;

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::schema::{Column, Schema};
use crate::storage::checksum::{write_record, Framed, RecordReader};
use crate::storage::frame;
use crate::storage::io::{self, OpenMode};
use crate::storage::page::{BufferPoolStats, PAGE_SIZE};
use crate::storage::table::Table;
use crate::storage::wal::{self, Wal, WalRecord, WalStats};
use crate::value::Value;

/// File name of the checkpointed catalog inside a data directory.
pub const META_FILE: &str = "catalog.meta";

/// Catalog meta magic (and format version).
pub const META_MAGIC: &[u8; 8] = b"OIVMMET3";

/// Tuple bytes after which a table file's record is closed; a single
/// larger row makes one larger record.
const CHUNK_BYTES: usize = 64 << 10;

const META_TAG_TABLE: u8 = 1;
const META_TAG_VIEW: u8 = 2;
const META_TAG_END: u8 = 0xFF;

fn corrupt_meta(what: impl Into<String>) -> EngineError {
    EngineError::execution(format!("corrupt catalog meta: {}", what.into()))
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> EngineError {
    EngineError::execution(format!(
        "durability I/O error ({op}, {}): {e}",
        path.display()
    ))
}

/// Names one table file: `table.<epoch>.<ordinal>.dat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableFile {
    /// Epoch of the checkpoint that wrote the file.
    pub epoch: u64,
    /// How many table files the writing process had created before it.
    pub ordinal: u64,
}

impl TableFile {
    /// The file name inside the data directory.
    pub fn name(self) -> String {
        format!("table.{}.{}.dat", self.epoch, self.ordinal)
    }

    /// The table file `name` names, if it is one.
    pub fn parse(name: &str) -> Option<TableFile> {
        let stem = name.strip_prefix("table.")?.strip_suffix(".dat")?;
        let (epoch, ordinal) = stem.split_once('.')?;
        Some(TableFile {
            epoch: epoch.parse().ok()?,
            ordinal: ordinal.parse().ok()?,
        })
    }
}

/// Everything needed to reload one table from its file and to decide at
/// the next checkpoint whether it must be rewritten.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column layout.
    pub columns: Vec<Column>,
    /// Primary-key column positions.
    pub primary_key: Vec<usize>,
    /// Secondary index definitions `(name, columns, unique)`.
    pub secondary: Vec<(String, Vec<usize>, bool)>,
    /// Physical slot count including tombstones (restores row ids).
    pub total_slots: u64,
    /// Live row count (checked against the file on load).
    pub live_rows: u64,
    /// The file holding the live rows.
    pub file: TableFile,
}

/// A table's state as of the last checkpoint.
#[derive(Debug, Clone)]
struct TableSnapshot {
    /// [`Table::generation`] at checkpoint time; a differing live value
    /// means the table is dirty and must be rewritten.
    generation: u64,
    meta: TableMeta,
}

/// Counters from the last recovery (`Database::open`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed WAL records replayed.
    pub replayed_records: u64,
    /// WAL bytes scanned.
    pub wal_bytes: u64,
    /// Tables loaded from their files.
    pub tables_loaded: u64,
}

/// The durable half of a [`crate::session::Database`]: table files, WAL,
/// and checkpointed catalog metadata for one data directory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Arc<Wal>,
    epoch: u64,
    /// Table files this process has created: the next one's ordinal.
    files_created: u64,
    snapshots: HashMap<String, TableSnapshot>,
    recovery: RecoveryStats,
    io: BufferPoolStats,
}

/// `bytes` in [`PAGE_SIZE`] units, rounded up.
fn pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

impl Durability {
    /// Open (or create) the durable state in `dir`: load the last
    /// checkpoint, replay the committed WAL prefix, and take a recovery
    /// checkpoint. The WAL fsyncs at every commit point when
    /// `sync_on_commit` is set. Returns the orchestrator plus the
    /// recovered catalog (WAL hooks not yet attached — the caller attaches
    /// them once the catalog is installed in its session).
    pub(crate) fn open(
        dir: impl Into<PathBuf>,
        sync_on_commit: bool,
    ) -> Result<(Durability, Catalog), EngineError> {
        let dir = dir.into();
        io::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let meta_path = dir.join(META_FILE);
        let meta = match io::read(&meta_path) {
            Ok(bytes) => Some(decode_meta(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read meta", &meta_path, e)),
        };
        let mut catalog = Catalog::new();
        let mut snapshots = HashMap::new();
        let mut epoch = 0u64;
        let mut recovery = RecoveryStats::default();
        let mut stats = BufferPoolStats::default();
        if let Some((meta_epoch, table_metas, views)) = meta {
            epoch = meta_epoch;
            for tm in table_metas {
                let (table, bytes) = load_table(&dir, &tm)?;
                stats.misses += pages(bytes);
                recovery.tables_loaded += 1;
                snapshots.insert(
                    tm.name.clone(),
                    TableSnapshot {
                        generation: table.generation(),
                        meta: tm,
                    },
                );
                catalog.create_table(table)?;
            }
            for (name, sql) in views {
                catalog.create_view(name, parse_view_sql(&sql)?)?;
            }
        }
        let mut touched = HashSet::new();
        recovery.wal_bytes = Wal::replay(&dir, epoch, |records| {
            recovery.replayed_records += records.len() as u64;
            for rec in records {
                apply_record(&mut catalog, rec, &mut touched)
                    .map_err(|e| EngineError::execution(format!("WAL replay failed: {e}")))?;
            }
            Ok(())
        })?;
        // Replayed-over tables are dirty: drop their snapshots so the
        // recovery checkpoint rewrites them.
        for name in touched {
            snapshots.remove(&name);
        }
        let wal = Arc::new(Wal::open(&dir, sync_on_commit)?);
        let mut d = Durability {
            dir,
            wal,
            epoch,
            files_created: 0,
            snapshots,
            recovery,
            io: stats,
        };
        // Recovery checkpoint: makes the replayed state durable and
        // resets the WAL under a fresh epoch.
        d.checkpoint(&catalog)?;
        Ok((d, catalog))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counters from the last recovery.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Cumulative WAL counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Cumulative table-file I/O, in [`PAGE_SIZE`] units (see
    /// [`BufferPoolStats`] for the two fields that stay 0).
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.io
    }

    /// A shared handle to the WAL, for attaching to catalogs/tables.
    pub fn wal_handle(&self) -> Arc<Wal> {
        Arc::clone(&self.wal)
    }

    /// Commit the current WAL statement (group-commit durability point).
    pub fn wal_commit(&self) -> Result<(), EngineError> {
        self.wal.commit().map(|_| ())
    }

    /// Whether the WAL has poisoned itself after a commit-path write or
    /// fsync failure (the database must degrade to read-only).
    pub fn wal_poisoned(&self) -> bool {
        self.wal.poisoned()
    }

    /// Take a checkpoint of `catalog`: write each dirty table to a new
    /// file, fsync, atomically publish the new `catalog.meta`, reset the
    /// WAL under the bumped epoch, and delete the files no table names.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<(), EngineError> {
        // Flush any open statement so the WAL is a committed prefix even
        // if this checkpoint fails halfway through.
        self.wal.commit()?;
        let next_epoch = self.epoch + 1;
        let mut new_snaps: HashMap<String, TableSnapshot> = HashMap::new();
        let mut wrote = false;
        for name in catalog.table_names() {
            let table = catalog.table(&name)?;
            let meta = match self.snapshots.get(&name) {
                Some(s) if s.generation == table.generation() => s.meta.clone(),
                _ => {
                    // A failed checkpoint's files may be named by a meta
                    // that did publish, so ordinals are never reused.
                    let file = TableFile {
                        epoch: next_epoch,
                        ordinal: self.files_created,
                    };
                    self.files_created += 1;
                    let bytes = store_table(&self.dir, file, table)?;
                    self.io.pages_written += pages(bytes);
                    wrote = true;
                    TableMeta {
                        name: table.name.clone(),
                        columns: table.schema.columns.clone(),
                        primary_key: table.primary_key.clone(),
                        secondary: table.secondary_index_defs(),
                        total_slots: table.total_slots() as u64,
                        live_rows: table.live_rows() as u64,
                        file,
                    }
                }
            };
            let generation = table.generation();
            new_snaps.insert(name, TableSnapshot { generation, meta });
        }
        if wrote {
            io::sync_dir(&self.dir).map_err(|e| io_err("fsync dir", &self.dir, e))?;
        }
        let mut views: Vec<(String, String)> = Vec::new();
        for n in catalog.view_names() {
            let query = catalog.view(&n).ok_or_else(|| {
                EngineError::execution(format!("view {n} vanished during checkpoint"))
            })?;
            let sql = ivm_sql::print_query(query, Dialect::DuckDb);
            views.push((n, sql));
        }
        write_meta(&self.dir, next_epoch, &new_snaps, &views)?;
        self.wal.reset(next_epoch)?;
        self.epoch = next_epoch;
        self.snapshots = new_snaps;
        self.remove_unnamed_files();
        Ok(())
    }

    /// Delete the table files no table of the published checkpoint names.
    /// Best effort: a file that stays is deleted by a later checkpoint.
    fn remove_unnamed_files(&self) {
        let named: HashSet<TableFile> = self.snapshots.values().map(|s| s.meta.file).collect();
        for path in io::read_dir(&self.dir).unwrap_or_default() {
            let file = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(TableFile::parse);
            if file.is_some_and(|f| !named.contains(&f)) {
                let _ = io::remove_file(&path);
            }
        }
    }
}

fn parse_view_sql(sql: &str) -> Result<ivm_sql::ast::Query, EngineError> {
    match ivm_sql::parse_statement(sql) {
        Ok(Statement::Query(q)) => Ok(*q),
        Ok(_) => Err(corrupt_meta(format!("view SQL is not a query: {sql}"))),
        Err(e) => Err(corrupt_meta(format!("view SQL does not parse: {e}"))),
    }
}

/// Apply one replayed record to the catalog (WAL hooks must be
/// detached), adding the name of the table it touched to `touched`.
fn apply_record(
    catalog: &mut Catalog,
    rec: WalRecord,
    touched: &mut HashSet<String>,
) -> Result<(), EngineError> {
    let table = match rec {
        WalRecord::Commit => return Ok(()),
        WalRecord::Insert { table, row } => {
            catalog.table_mut(&table)?.insert(row)?;
            table
        }
        WalRecord::Delete { table, row_id } => {
            catalog.table_mut(&table)?.delete(row_id)?;
            table
        }
        WalRecord::Update { table, row_id, row } => {
            catalog.table_mut(&table)?.update(row_id, row)?;
            table
        }
        WalRecord::Truncate { table } => {
            catalog.table_mut(&table)?.truncate();
            table
        }
        WalRecord::Compact { table } => {
            catalog.table_mut(&table)?.compact();
            table
        }
        WalRecord::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            catalog.create_table(Table::new(name.clone(), Schema::new(columns), primary_key))?;
            name
        }
        WalRecord::DropTable { name } => {
            catalog.drop_table(&name, false)?;
            name
        }
        WalRecord::CreateView { name, sql } => {
            return catalog.create_view(name, parse_view_sql(&sql)?);
        }
        WalRecord::DropView { name } => {
            return catalog.drop_view(&name, false).map(|_| ());
        }
        WalRecord::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => {
            catalog
                .table_mut(&table)?
                .create_secondary_index(name, columns, unique)?;
            table
        }
        WalRecord::DropIndex { table, name } => {
            catalog.table_mut(&table)?.drop_secondary_index(&name);
            table
        }
        WalRecord::AddPk { table, columns } => {
            catalog.table_mut(&table)?.add_pk_index(columns)?;
            table
        }
    };
    touched.insert(table);
    Ok(())
}

// ---------------------------------------------------------------------
// Table <-> file
// ---------------------------------------------------------------------

/// Write `table`'s live rows, in slot order, to the new file `file` and
/// fsync it. Returns the bytes written. On failure the partial file is
/// deleted (best effort), so a failed checkpoint gives its space back.
fn store_table(dir: &Path, file: TableFile, table: &Table) -> Result<u64, EngineError> {
    let path = dir.join(file.name());
    let write = || {
        let mut out = io::open(&path, OpenMode::Create).map_err(|e| io_err("create", &path, e))?;
        let mut buf = Vec::new();
        let mut written = 0u64;
        let mut rows = table.scan().peekable();
        while rows.peek().is_some() {
            buf.clear();
            write_record(&mut buf, |chunk| {
                while chunk.len() < CHUNK_BYTES {
                    let Some((slot, row)) = rows.next() else {
                        break;
                    };
                    chunk.extend_from_slice(&slot.to_le_bytes());
                    frame::encode_row(chunk, &row);
                }
            });
            out.write_all(&buf).map_err(|e| io_err("write", &path, e))?;
            written += buf.len() as u64;
        }
        out.sync_data().map_err(|e| io_err("fsync", &path, e))?;
        Ok(written)
    };
    let written = write();
    if written.is_err() {
        let _ = io::remove_file(&path);
    }
    written
}

/// Rebuild a table by streaming its file one record at a time. Returns
/// the table and the file's size.
fn load_table(dir: &Path, tm: &TableMeta) -> Result<(Table, u64), EngineError> {
    let path = dir.join(tm.file.name());
    let corrupt = |what: &str| {
        EngineError::execution(format!("corrupt table file {}: {what}", path.display()))
    };
    let mut file = match io::open(&path, OpenMode::ReadOnly) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(corrupt_meta(format!(
                "table {} names missing file {}",
                tm.name,
                tm.file.name()
            )))
        }
        Err(e) => return Err(io_err("open", &path, e)),
    };
    let len = file.len().map_err(|e| io_err("stat", &path, e))?;
    let mut records = RecordReader::new(file, len);
    // Grown as records decode: `tm.live_rows` comes from the meta and is
    // only checked against the file below, never reserved up front.
    let mut rows: Vec<(u64, Vec<Value>)> = Vec::new();
    loop {
        match records
            .next_record()
            .map_err(|e| io_err("read", &path, e))?
        {
            Framed::Record(chunk) => {
                let mut cur = Cursor::new(chunk);
                while cur.position() < chunk.len() as u64 {
                    let slot = wal::get_u64(&mut cur).map_err(|e| corrupt(e.message()))?;
                    let row = frame::decode_row(&mut cur).map_err(|e| corrupt(e.message()))?;
                    rows.push((slot, row));
                }
            }
            Framed::Eof => break,
            Framed::Torn => return Err(corrupt("torn record or checksum mismatch")),
        }
    }
    if rows.len() as u64 != tm.live_rows {
        return Err(corrupt(&format!(
            "table {} expected {} live rows, the file holds {}",
            tm.name,
            tm.live_rows,
            rows.len()
        )));
    }
    let table = Table::from_parts(
        tm.name.clone(),
        Schema::new(tm.columns.clone()),
        tm.primary_key.clone(),
        &tm.secondary,
        tm.total_slots,
        rows,
    )
    .map_err(|e| corrupt_meta(e.message()))?;
    Ok((table, len))
}

// ---------------------------------------------------------------------
// catalog.meta encode/decode
// ---------------------------------------------------------------------

type DecodedMeta = (u64, Vec<TableMeta>, Vec<(String, String)>);

fn write_meta(
    dir: &Path,
    epoch: u64,
    snapshots: &HashMap<String, TableSnapshot>,
    views: &[(String, String)],
) -> Result<(), EngineError> {
    let mut out = Vec::new();
    out.extend_from_slice(META_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    let mut names: Vec<&String> = snapshots.keys().collect();
    names.sort();
    for name in names {
        let tm = &snapshots[name].meta;
        write_record(&mut out, |p| {
            p.push(META_TAG_TABLE);
            wal::put_str(p, &tm.name);
            wal::put_columns(p, &tm.columns);
            wal::put_positions(p, &tm.primary_key);
            p.extend_from_slice(&(tm.secondary.len() as u32).to_le_bytes());
            for (iname, cols, unique) in &tm.secondary {
                wal::put_str(p, iname);
                wal::put_positions(p, cols);
                p.push(u8::from(*unique));
            }
            wal::put_u64(p, tm.total_slots);
            wal::put_u64(p, tm.live_rows);
            wal::put_u64(p, tm.file.epoch);
            wal::put_u64(p, tm.file.ordinal);
        });
    }
    for (name, sql) in views {
        write_record(&mut out, |p| {
            p.push(META_TAG_VIEW);
            wal::put_str(p, name);
            wal::put_str(p, sql);
        });
    }
    write_record(&mut out, |p| p.push(META_TAG_END));

    let tmp = dir.join(format!("{META_FILE}.tmp"));
    let final_path = dir.join(META_FILE);
    {
        let mut f = io::open(&tmp, OpenMode::Create).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(&out).map_err(|e| io_err("write", &tmp, e))?;
        f.sync_data().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    io::rename(&tmp, &final_path).map_err(|e| io_err("rename", &final_path, e))?;
    // fsync the directory so the rename itself is durable across power
    // loss — checked, not best-effort: a checkpoint that cannot prove
    // its publish durable must fail. Failing here is safe either way:
    // whichever meta survives a crash, the epoch protocol discards or
    // replays the WAL to match.
    io::sync_dir(dir).map_err(|e| io_err("fsync dir", dir, e))?;
    Ok(())
}

fn decode_meta(bytes: &[u8]) -> Result<DecodedMeta, EngineError> {
    if bytes.len() < 16 || &bytes[..8] != META_MAGIC {
        return Err(corrupt_meta("bad magic or truncated header"));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut tables = Vec::new();
    let mut views = Vec::new();
    let mut records = RecordReader::new(&bytes[16..], bytes.len() as u64 - 16);
    loop {
        let payload = match records.next_record() {
            Ok(Framed::Record(payload)) => payload,
            Ok(Framed::Eof) => return Err(corrupt_meta("missing end marker")),
            _ => return Err(corrupt_meta("torn record or checksum mismatch")),
        };
        let mut r = Cursor::new(payload);
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)
            .map_err(|_| corrupt_meta("empty record"))?;
        match tag[0] {
            META_TAG_TABLE => {
                let name = wal::get_str(&mut r)?;
                let columns = wal::get_columns(&mut r)?;
                let primary_key = wal::get_positions(&mut r)?;
                wal::check_positions(&primary_key, columns.len()).map_err(corrupt_meta)?;
                let mut b = [0u8; 4];
                r.read_exact(&mut b)
                    .map_err(|_| corrupt_meta("truncated index count"))?;
                let nsec = u32::from_le_bytes(b);
                if nsec > frame::MAX_FRAME_COLS {
                    return Err(corrupt_meta(format!("index count {nsec} exceeds cap")));
                }
                let mut secondary = Vec::with_capacity(nsec as usize);
                for _ in 0..nsec {
                    let iname = wal::get_str(&mut r)?;
                    let cols = wal::get_positions(&mut r)?;
                    wal::check_positions(&cols, columns.len()).map_err(corrupt_meta)?;
                    let mut u = [0u8; 1];
                    r.read_exact(&mut u)
                        .map_err(|_| corrupt_meta("truncated unique flag"))?;
                    secondary.push((iname, cols, u[0] != 0));
                }
                let total_slots = wal::get_u64(&mut r)?;
                let live_rows = wal::get_u64(&mut r)?;
                let file = TableFile {
                    epoch: wal::get_u64(&mut r)?,
                    ordinal: wal::get_u64(&mut r)?,
                };
                if r.position() != payload.len() as u64 {
                    return Err(corrupt_meta("trailing bytes in table record"));
                }
                if live_rows > total_slots {
                    return Err(corrupt_meta(format!(
                        "table {name} claims {live_rows} live rows in {total_slots} slots"
                    )));
                }
                // Files of later epochs are a crashed checkpoint's, which
                // the recovery checkpoint may overwrite.
                if file.epoch > epoch {
                    return Err(corrupt_meta(format!(
                        "table {name} names {} of a later epoch",
                        file.name()
                    )));
                }
                tables.push(TableMeta {
                    name,
                    columns,
                    primary_key,
                    secondary,
                    total_slots,
                    live_rows,
                    file,
                });
            }
            META_TAG_VIEW => {
                let name = wal::get_str(&mut r)?;
                let sql = wal::get_str(&mut r)?;
                if r.position() != payload.len() as u64 {
                    return Err(corrupt_meta("trailing bytes in view record"));
                }
                views.push((name, sql));
            }
            META_TAG_END => {
                if !matches!(records.next_record(), Ok(Framed::Eof)) {
                    return Err(corrupt_meta("trailing bytes after end marker"));
                }
                return Ok((epoch, tables, views));
            }
            other => return Err(corrupt_meta(format!("unknown record tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "openivm-durability-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Varchar),
                Column::new("v", DataType::Integer),
            ]),
            vec![0],
        );
        for (k, v) in [("a", 1i64), ("b", 2), ("c", 3)] {
            t.insert(vec![Value::from(k), Value::Integer(v)]).unwrap();
        }
        t.delete(1).unwrap(); // leave a tombstone: slot layout must survive
        c.create_table(t).unwrap();
        c
    }

    /// A table whose file spans several records.
    fn big_table() -> Table {
        let mut t = Table::new(
            "big",
            Schema::new(vec![Column::new("x", DataType::Integer)]),
            vec![],
        );
        for i in 0..5000i64 {
            t.insert(vec![Value::Integer(i)]).unwrap();
        }
        t
    }

    #[test]
    fn checkpoint_reopen_roundtrip_preserves_slots() {
        let dir = temp_dir("roundtrip");
        {
            let (mut d, _) = Durability::open(&dir, true).unwrap();
            let catalog = seed_catalog();
            d.checkpoint(&catalog).unwrap();
        }
        let (d, catalog) = Durability::open(&dir, true).unwrap();
        let t = catalog.table("t").unwrap();
        assert_eq!(t.total_slots(), 3, "tombstone slot preserved");
        assert_eq!(t.live_rows(), 2);
        let rows: Vec<_> = t.scan().collect();
        assert_eq!(rows[0], (0, vec![Value::from("a"), Value::Integer(1)]));
        assert_eq!(rows[1], (2, vec![Value::from("c"), Value::Integer(3)]));
        assert_eq!(
            t.lookup_pk(&[Value::from("c")]),
            Some(2),
            "PK index rebuilt"
        );
        assert_eq!(d.recovery_stats().tables_loaded, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The file `dir` holds for `table`, in [`PAGE_SIZE`] units.
    fn file_pages(d: &Durability, table: &str) -> u64 {
        let path = d.dir.join(d.snapshots[table].meta.file.name());
        pages(std::fs::metadata(path).unwrap().len())
    }

    /// The I/O bound, in [`BufferPoolStats`] units: a checkpoint writes
    /// each dirty table's file once and nothing else; an open reads each
    /// file the meta names once.
    #[test]
    fn clean_tables_are_not_rewritten() {
        let dir = temp_dir("clean");
        let (mut d, _) = Durability::open(&dir, true).unwrap();
        let mut catalog = seed_catalog();
        catalog.create_table(big_table()).unwrap();
        d.checkpoint(&catalog).unwrap();
        let written = d.pool_stats().pages_written;
        d.checkpoint(&catalog).unwrap();
        assert_eq!(
            d.pool_stats().pages_written,
            written,
            "a clean checkpoint writes nothing"
        );

        catalog
            .table_mut("big")
            .unwrap()
            .insert(vec![Value::Integer(0)])
            .unwrap();
        d.checkpoint(&catalog).unwrap();
        let big_pages = file_pages(&d, "big");
        assert!(big_pages > 1, "big spans several pages");
        assert_eq!(
            d.pool_stats().pages_written,
            written + big_pages,
            "only the dirty table's file is written, once"
        );

        let named = file_pages(&d, "big") + file_pages(&d, "t");
        drop(d);
        let (d, _) = Durability::open(&dir, true).unwrap();
        let stats = d.pool_stats();
        assert_eq!(stats.misses, named, "each named file read once");
        assert_eq!((stats.hits, stats.evictions), (0, 0));
        assert_eq!(stats.pages_written, 0, "nothing replayed, nothing dirty");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoints_leave_one_file_per_table() {
        let dir = temp_dir("files");
        let (mut d, _) = Durability::open(&dir, true).unwrap();
        let mut catalog = seed_catalog();
        catalog.create_table(big_table()).unwrap();
        for _ in 0..5 {
            catalog
                .table_mut("big")
                .unwrap()
                .insert(vec![Value::Integer(0)])
                .unwrap();
            d.checkpoint(&catalog).unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let t = d.snapshots["t"].meta.file.name();
        let big = d.snapshots["big"].meta.file.name();
        let mut expected = vec![META_FILE.to_string(), big, t, wal::WAL_FILE.into()];
        expected.sort();
        assert_eq!(names, expected);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_varchar_round_trips() {
        let dir = temp_dir("oversized");
        let big = "x".repeat(3 * CHUNK_BYTES); // one row, larger than a chunk
        {
            let (mut d, mut catalog) = Durability::open(&dir, true).unwrap();
            let mut t = Table::new(
                "o",
                Schema::new(vec![Column::new("s", DataType::Varchar)]),
                vec![],
            );
            t.insert(vec![Value::from("small")]).unwrap();
            t.insert(vec![Value::Varchar(big.clone())]).unwrap();
            t.insert(vec![Value::from("tail")]).unwrap();
            catalog.create_table(t).unwrap();
            d.checkpoint(&catalog).unwrap();
        }
        let (_, catalog) = Durability::open(&dir, true).unwrap();
        let t = catalog.table("o").unwrap();
        let rows: Vec<_> = t.scan().map(|(_, r)| r).collect();
        assert_eq!(rows[0], vec![Value::from("small")]);
        assert_eq!(rows[1], vec![Value::Varchar(big)]);
        assert_eq!(rows[2], vec![Value::from("tail")]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn meta_corruption_is_a_clean_error() {
        let dir = temp_dir("badmeta");
        {
            let (mut d, _) = Durability::open(&dir, true).unwrap();
            d.checkpoint(&seed_catalog()).unwrap();
        }
        let meta_path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&meta_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&meta_path, &bytes).unwrap();
        let err = Durability::open(&dir, true).unwrap_err();
        assert!(err.to_string().contains("corrupt catalog meta"), "{err}");

        // Hand-built metas of epoch 1 naming `table.<e>.0.dat`, planted with
        // the bytes of each case (`None`: no such file), and the error each
        // must give. Sizes, counts and key positions inside a record whose
        // CRC is valid are not trusted either, nor a file of a later epoch
        // than the meta's. The first case is the control: it must load.
        let mut one_row = Vec::new();
        write_record(&mut one_row, |p| {
            p.extend_from_slice(&0u64.to_le_bytes());
            frame::encode_row(p, &[Value::Integer(7)]);
        });
        let mut past_eof = one_row.clone();
        past_eof.truncate(one_row.len() - 1);
        let mut four_gib = u32::MAX.to_le_bytes().to_vec();
        four_gib.extend_from_slice(&[0u8; 12]);
        let no_index: Vec<(&str, Vec<usize>)> = Vec::new();
        let (meta, file) = ("corrupt catalog meta", "corrupt table file");
        let cases = [
            (vec![], no_index.clone(), 1, 1, Some(&one_row), 1, ""),
            (vec![], no_index.clone(), 1, 1, None, 1, meta),
            (vec![], no_index.clone(), 1, 1, Some(&past_eof), 1, file),
            (vec![], no_index.clone(), 1, 1, Some(&four_gib), 1, file),
            (vec![], no_index.clone(), 2, 2, Some(&one_row), 1, file),
            (
                vec![],
                no_index.clone(),
                1,
                1u64 << 60,
                Some(&one_row),
                1,
                meta,
            ),
            (
                vec![],
                no_index.clone(),
                1u64 << 60,
                1,
                Some(&one_row),
                1,
                meta,
            ),
            (vec![3], no_index.clone(), 1, 1, Some(&one_row), 1, meta),
            (vec![], vec![("ix", vec![5])], 1, 1, Some(&one_row), 1, meta),
            (vec![], no_index, 1, 1, Some(&one_row), 2, meta),
        ];
        for (i, case) in cases.into_iter().enumerate() {
            let (primary_key, secondary, total_slots, live_rows, contents, epoch, expect) = case;
            let mut bytes = META_MAGIC.to_vec();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            write_record(&mut bytes, |p| {
                p.push(META_TAG_TABLE);
                wal::put_str(p, "t");
                wal::put_columns(p, &[Column::new("v", DataType::Integer)]);
                wal::put_positions(p, &primary_key);
                p.extend_from_slice(&(secondary.len() as u32).to_le_bytes());
                for (name, cols) in &secondary {
                    wal::put_str(p, name);
                    wal::put_positions(p, cols);
                    p.push(0); // not unique
                }
                wal::put_u64(p, total_slots);
                wal::put_u64(p, live_rows);
                wal::put_u64(p, epoch);
                wal::put_u64(p, 0); // file ordinal
            });
            write_record(&mut bytes, |p| p.push(META_TAG_END));
            let file = dir.join(TableFile { epoch, ordinal: 0 }.name());
            std::fs::write(&meta_path, &bytes).unwrap();
            // The control's recovery checkpoint left a WAL of epoch 2.
            let _ = std::fs::remove_file(dir.join(wal::WAL_FILE));
            let _ = std::fs::remove_file(&file);
            if let Some(contents) = contents {
                std::fs::write(&file, contents).unwrap();
            }
            let opened = Durability::open(&dir, true);
            if i == 0 {
                let rows: Vec<_> = opened.unwrap().1.table("t").unwrap().scan().collect();
                assert_eq!(rows, vec![(0, vec![Value::Integer(7)])]);
            } else {
                let err = opened.unwrap_err().to_string();
                assert!(err.contains(expect), "case {i}: {err}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Key positions in committed WAL records are checked too: replaying
    /// a table whose primary key names a missing column, or a primary
    /// key added on one, is an error at open — not a panic at the first
    /// key built.
    #[test]
    fn wal_key_positions_are_checked_on_replay() {
        let column = || vec![Column::new("v", DataType::Integer)];
        let create = |primary_key| WalRecord::CreateTable {
            name: "t".into(),
            columns: column(),
            primary_key,
        };
        let insert = WalRecord::Insert {
            table: "t".into(),
            row: vec![Value::Integer(1)],
        };
        let add_pk = WalRecord::AddPk {
            table: "t".into(),
            columns: vec![9],
        };
        for (i, records) in [
            vec![create(vec![3]), insert.clone()],
            vec![create(vec![]), insert, add_pk],
        ]
        .into_iter()
        .enumerate()
        {
            let dir = temp_dir(&format!("badwal{i}"));
            {
                let (d, _) = Durability::open(&dir, true).unwrap();
                let wal = d.wal_handle();
                for rec in &records {
                    wal.log(rec);
                }
                d.wal_commit().unwrap();
            }
            let err = Durability::open(&dir, true).unwrap_err();
            assert!(err.to_string().contains("corrupt"), "{err}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

//! Durable-catalog orchestration: shadow-paged checkpoints + WAL replay.
//!
//! A durable database directory holds three files:
//!
//! ```text
//! <dir>/pages.db       fixed-size slotted pages (tables at rest)
//! <dir>/catalog.meta   the last checkpoint: epoch, table metas, views
//! <dir>/wal.NNNN.log   redo segments since that checkpoint (rotated at
//!                      a size bound; a legacy single wal.log replays)
//! ```
//!
//! **Checkpoint** is shadow-paged: dirty tables (detected via the
//! process-wide [`Table::generation`] counter stamped at the previous
//! checkpoint) are written to *freshly allocated* pages — never over
//! pages the current `catalog.meta` references — then `pages.db` is
//! fsynced, `catalog.meta.tmp` is written, fsynced, and
//! atomically renamed over `catalog.meta` with a bumped epoch, and
//! finally the WAL is reset under the new epoch. A crash at any point
//! leaves either the old meta + old WAL (epochs match → replay) or the
//! new meta + old WAL (old epoch < new epoch → WAL discarded; its
//! effects are inside the new checkpoint). Pages referenced by neither
//! become the allocator's free list.
//!
//! **Recovery** ([`Durability::open`]) loads every table from its pages
//! (each checksum-verified as it is read), replays the committed WAL
//! prefix, and immediately takes a recovery checkpoint.
//!
//! **I/O bound.** Tables are fully memory-resident, so table bytes cross
//! the disk boundary at exactly two moments and nothing is demand-paged
//! in between: `open` reads every page `catalog.meta` references once,
//! and `checkpoint` writes every page of every dirty table once. Both go
//! through the same two [`PAGE_SIZE`]-byte buffers (one heap page, one
//! overflow page), whatever the table size.
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
use crate::storage::checksum::crc32;
use crate::storage::frame;
use crate::storage::io::{self, OpenMode};
use crate::storage::page::{self, HEAP_TUPLE_CAP, NO_PAGE, OVERFLOW_CAP, PAGE_SIZE};
use crate::storage::pagefile::{BufferPoolStats, PageFile, PageStore};
use crate::storage::table::Table;
use crate::storage::wal::{self, Wal, WalRecord, WalStats};

/// File name of the page store inside a data directory.
pub const PAGES_FILE: &str = "pages.db";
/// File name of the checkpointed catalog inside a data directory.
pub const META_FILE: &str = "catalog.meta";

/// Catalog meta magic (and format version).
pub const META_MAGIC: &[u8; 8] = b"OIVMMET1";

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

/// Tuning knobs for a durable database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// fsync the WAL at every commit point (`true` for `Database::open`;
    /// the ephemeral `OPENIVM_DATA_DIR` test mode turns it off for
    /// throughput — crash safety there is exercised by the harness's
    /// explicit directories, not the suite-wide leg).
    pub sync_on_commit: bool,
    /// WAL segment size bound: after a commit leaves the active segment
    /// at or past this many bytes, the log rotates to a fresh segment.
    pub wal_segment_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            sync_on_commit: true,
            wal_segment_bytes: wal::DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Everything needed to reload one table from pages and to decide at the
/// next checkpoint whether it must be rewritten.
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
    /// Live row count (sanity-checked on load).
    pub live_rows: u64,
    /// Heap pages, in slot order.
    pub pages: Vec<u64>,
    /// Overflow pages owned by this table (for free-space accounting).
    pub overflow: Vec<u64>,
}

/// A table's state as of the last checkpoint.
#[derive(Debug, Clone)]
struct TableSnapshot {
    /// [`Table::generation`] at checkpoint time; a differing live value
    /// means the table is dirty and must be rewritten.
    generation: u64,
    meta: TableMeta,
}

/// Counters from the last [`Durability::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed WAL records replayed.
    pub replayed_records: u64,
    /// WAL bytes scanned.
    pub wal_bytes: u64,
    /// Tables loaded from pages.
    pub tables_loaded: u64,
}

/// The two page buffers all table I/O goes through: the heap page being
/// filled or decoded, and the overflow page of the tuple at hand.
#[derive(Debug)]
struct PageBufs {
    heap: Box<[u8]>,
    overflow: Box<[u8]>,
}

/// The durable half of a [`crate::session::Database`]: page store, WAL,
/// and checkpointed catalog metadata for one data directory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    store: PageStore,
    bufs: PageBufs,
    wal: Arc<Wal>,
    epoch: u64,
    snapshots: HashMap<String, TableSnapshot>,
    recovery: RecoveryStats,
}

impl Durability {
    /// Open (or create) the durable state in `dir`: load the last
    /// checkpoint, replay the committed WAL prefix, and take a recovery
    /// checkpoint. Returns the orchestrator plus the recovered catalog
    /// (WAL hooks not yet attached — the caller attaches them once the
    /// catalog is installed in its session).
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: DurabilityOptions,
    ) -> Result<(Durability, Catalog), EngineError> {
        let dir = dir.into();
        io::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        let meta_path = dir.join(META_FILE);
        let meta = match io::read(&meta_path) {
            Ok(bytes) => Some(decode_meta(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read meta", &meta_path, e)),
        };
        let mut store = PageStore::new(PageFile::open(dir.join(PAGES_FILE))?);
        let mut bufs = PageBufs {
            heap: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            overflow: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        let mut catalog = Catalog::new();
        let mut snapshots = HashMap::new();
        let mut epoch = 0u64;
        let mut recovery = RecoveryStats::default();
        if let Some((meta_epoch, table_metas, views)) = meta {
            epoch = meta_epoch;
            // The free list must exclude every page the durable meta
            // references, including tables about to be rewritten.
            store.set_free_list(unreferenced_pages(&store, table_metas.iter()));
            for tm in &table_metas {
                let table = load_table(&mut store, &mut bufs, tm)?;
                recovery.tables_loaded += 1;
                snapshots.insert(
                    tm.name.clone(),
                    TableSnapshot {
                        generation: table.generation(),
                        meta: tm.clone(),
                    },
                );
                catalog.create_table(table)?;
            }
            for (name, sql) in views {
                catalog.create_view(name, parse_view_sql(&sql)?)?;
            }
        }
        match Wal::replay(&dir)? {
            Some((wal_epoch, records, bytes)) if wal_epoch == epoch => {
                recovery.replayed_records = records.len() as u64;
                recovery.wal_bytes = bytes;
                let touched = apply_records(&mut catalog, &records)?;
                // Replayed-over tables are dirty: drop their snapshots so
                // the recovery checkpoint rewrites them.
                for name in touched {
                    snapshots.remove(&name);
                }
            }
            Some((wal_epoch, _, _)) if wal_epoch > epoch => {
                return Err(EngineError::execution(format!(
                    "corrupt durable state: WAL epoch {wal_epoch} is newer than catalog epoch {epoch}"
                )));
            }
            // Older epoch: a pre-checkpoint log whose effects are already
            // inside the checkpoint (crash between meta rename and WAL
            // reset). Missing/headerless: nothing to replay.
            _ => {}
        }
        let wal = Arc::new(Wal::open(
            &dir,
            opts.sync_on_commit,
            opts.wal_segment_bytes,
        )?);
        let mut d = Durability {
            dir,
            store,
            bufs,
            wal,
            epoch,
            snapshots,
            recovery,
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

    /// Cumulative page I/O counters (pages read and written; see
    /// [`BufferPoolStats`] for the two fields that stay 0).
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.store.stats()
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

    /// Take a checkpoint of `catalog`: write dirty tables to fresh pages,
    /// fsync, atomically publish the new `catalog.meta`, and reset the
    /// WAL under the bumped epoch.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<(), EngineError> {
        // Flush any open statement so the WAL is a committed prefix even
        // if this checkpoint fails halfway through.
        self.wal.commit()?;
        let next_epoch = self.epoch + 1;
        let mut new_snaps: HashMap<String, TableSnapshot> = HashMap::new();
        for name in catalog.table_names() {
            let table = catalog.table(&name)?;
            match self.snapshots.get(&name) {
                Some(s) if s.generation == table.generation() => {
                    new_snaps.insert(name.clone(), s.clone());
                }
                _ => {
                    let meta = store_table(&mut self.store, &mut self.bufs, table, next_epoch)?;
                    new_snaps.insert(
                        name.clone(),
                        TableSnapshot {
                            generation: table.generation(),
                            meta,
                        },
                    );
                }
            }
        }
        self.store.sync()?;
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
        let metas = self.snapshots.values().map(|s| &s.meta);
        self.store
            .set_free_list(unreferenced_pages(&self.store, metas));
        Ok(())
    }
}

/// The page ids of `store`'s file that none of `metas` references.
fn unreferenced_pages<'a>(
    store: &PageStore,
    metas: impl Iterator<Item = &'a TableMeta>,
) -> Vec<u64> {
    let used: HashSet<u64> = metas
        .flat_map(|m| m.pages.iter().chain(&m.overflow).copied())
        .collect();
    (0..store.num_pages())
        .filter(|id| !used.contains(id))
        .collect()
}

fn parse_view_sql(sql: &str) -> Result<ivm_sql::ast::Query, EngineError> {
    match ivm_sql::parse_statement(sql) {
        Ok(Statement::Query(q)) => Ok(*q),
        Ok(_) => Err(corrupt_meta(format!("view SQL is not a query: {sql}"))),
        Err(e) => Err(corrupt_meta(format!("view SQL does not parse: {e}"))),
    }
}

/// Apply replayed records to the catalog (WAL hooks must be detached).
/// Returns the names of tables the replay touched.
fn apply_records(
    catalog: &mut Catalog,
    records: &[WalRecord],
) -> Result<HashSet<String>, EngineError> {
    let mut touched = HashSet::new();
    for rec in records {
        let res: Result<(), EngineError> = (|| {
            match rec {
                WalRecord::Commit => {}
                WalRecord::Insert { table, row } => {
                    catalog.table_mut(table)?.insert(row.clone())?;
                    touched.insert(table.clone());
                }
                WalRecord::Delete { table, row_id } => {
                    catalog.table_mut(table)?.delete(*row_id)?;
                    touched.insert(table.clone());
                }
                WalRecord::Update { table, row_id, row } => {
                    catalog.table_mut(table)?.update(*row_id, row.clone())?;
                    touched.insert(table.clone());
                }
                WalRecord::Truncate { table } => {
                    catalog.table_mut(table)?.truncate();
                    touched.insert(table.clone());
                }
                WalRecord::Compact { table } => {
                    catalog.table_mut(table)?.compact();
                    touched.insert(table.clone());
                }
                WalRecord::CreateTable {
                    name,
                    columns,
                    primary_key,
                } => {
                    catalog.create_table(Table::new(
                        name.clone(),
                        Schema::new(columns.clone()),
                        primary_key.clone(),
                    ))?;
                    touched.insert(name.clone());
                }
                WalRecord::DropTable { name } => {
                    catalog.drop_table(name, false)?;
                    touched.insert(name.clone());
                }
                WalRecord::CreateView { name, sql } => {
                    catalog.create_view(name.clone(), parse_view_sql(sql)?)?;
                }
                WalRecord::DropView { name } => {
                    catalog.drop_view(name, false)?;
                }
                WalRecord::CreateIndex {
                    table,
                    name,
                    columns,
                    unique,
                } => {
                    catalog.table_mut(table)?.create_secondary_index(
                        name.clone(),
                        columns.clone(),
                        *unique,
                    )?;
                    touched.insert(table.clone());
                }
                WalRecord::DropIndex { table, name } => {
                    catalog.table_mut(table)?.drop_secondary_index(name);
                    touched.insert(table.clone());
                }
                WalRecord::AddPk { table, columns } => {
                    catalog.table_mut(table)?.add_pk_index(columns.clone())?;
                    touched.insert(table.clone());
                }
            }
            Ok(())
        })();
        res.map_err(|e| {
            EngineError::execution(format!("WAL replay failed ({e}) applying {rec:?}"))
        })?;
    }
    Ok(touched)
}

// ---------------------------------------------------------------------
// Table <-> pages
// ---------------------------------------------------------------------

// Heap tuple layout: [0][slot:u64][encode_row…] inline, or
// [1][slot:u64][head_page:u64][payload_len:u64] with the row encoding
// chunked across an overflow chain.
const TUPLE_INLINE: u8 = 0;
const TUPLE_OVERFLOW: u8 = 1;

/// Write a table's live rows to freshly allocated pages (slot order).
/// A page's id is allocated when the page is started and the page is
/// written once, when it is full.
fn store_table(
    store: &mut PageStore,
    bufs: &mut PageBufs,
    table: &Table,
    lsn: u64,
) -> Result<TableMeta, EngineError> {
    let mut heap_pages = Vec::new();
    let mut overflow_pages = Vec::new();
    // Id of the heap page being filled in `bufs.heap`.
    let mut current: Option<u64> = None;
    let mut tuple = Vec::new();
    for (slot, row) in table.scan() {
        tuple.clear();
        tuple.push(TUPLE_INLINE);
        tuple.extend_from_slice(&slot.to_le_bytes());
        frame::encode_row(&mut tuple, &row);
        let mut overflow_ref = Vec::new();
        let bytes: &[u8] = if tuple.len() <= HEAP_TUPLE_CAP {
            &tuple
        } else {
            // Chain the row encoding back to front so each chunk knows
            // its successor's page id before being written.
            let payload = &tuple[9..];
            let mut next = NO_PAGE;
            for chunk in payload.chunks(OVERFLOW_CAP).rev() {
                let id = store.allocate();
                page::init_overflow(&mut bufs.overflow, lsn, next, chunk);
                store.write(id, &mut bufs.overflow)?;
                overflow_pages.push(id);
                next = id;
            }
            overflow_ref.push(TUPLE_OVERFLOW);
            overflow_ref.extend_from_slice(&slot.to_le_bytes());
            overflow_ref.extend_from_slice(&next.to_le_bytes());
            overflow_ref.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            &overflow_ref
        };
        if current.is_none() || !page::heap_push(&mut bufs.heap, bytes) {
            if let Some(full) = current {
                store.write(full, &mut bufs.heap)?;
            }
            let id = store.allocate();
            page::init_heap(&mut bufs.heap, lsn);
            if !page::heap_push(&mut bufs.heap, bytes) {
                return Err(EngineError::execution(
                    "internal: tuple does not fit an empty heap page",
                ));
            }
            heap_pages.push(id);
            current = Some(id);
        }
    }
    if let Some(last) = current {
        store.write(last, &mut bufs.heap)?;
    }
    Ok(TableMeta {
        name: table.name.clone(),
        columns: table.schema.columns.clone(),
        primary_key: table.primary_key.clone(),
        secondary: table.secondary_index_defs(),
        total_slots: table.total_slots() as u64,
        live_rows: table.live_rows() as u64,
        pages: heap_pages,
        overflow: overflow_pages,
    })
}

/// Rebuild a table from its checkpointed pages, decoding each tuple in
/// place from the page buffer it was read into.
fn load_table(
    store: &mut PageStore,
    bufs: &mut PageBufs,
    tm: &TableMeta,
) -> Result<Table, EngineError> {
    // Grown as pages decode: `tm.live_rows` comes from the file and is
    // only checked against the pages below, never reserved up front.
    let mut rows: Vec<(u64, Vec<crate::value::Value>)> = Vec::new();
    for &pid in &tm.pages {
        store.read(pid, &mut bufs.heap)?;
        for t in page::heap_tuples(&bufs.heap, pid)? {
            if t.len() < 9 {
                return Err(corrupt_meta(format!("short tuple on page {pid}")));
            }
            let slot = u64::from_le_bytes(t[1..9].try_into().unwrap());
            let chained;
            let encoded: &[u8] = match t[0] {
                TUPLE_INLINE => &t[9..],
                TUPLE_OVERFLOW => {
                    if t.len() != 25 {
                        return Err(corrupt_meta(format!("bad overflow ref on page {pid}")));
                    }
                    let head = u64::from_le_bytes(t[9..17].try_into().unwrap());
                    let payload_len = u64::from_le_bytes(t[17..25].try_into().unwrap());
                    chained = read_overflow_chain(store, &mut bufs.overflow, head, payload_len)?;
                    &chained
                }
                other => return Err(corrupt_meta(format!("unknown tuple tag {other}"))),
            };
            let mut cur = Cursor::new(encoded);
            let row = frame::decode_row(&mut cur)?;
            if cur.position() != encoded.len() as u64 {
                return Err(corrupt_meta(format!("trailing tuple bytes on page {pid}")));
            }
            rows.push((slot, row));
        }
    }
    if rows.len() as u64 != tm.live_rows {
        return Err(corrupt_meta(format!(
            "table {} expected {} live rows, pages hold {}",
            tm.name,
            tm.live_rows,
            rows.len()
        )));
    }
    Table::from_parts(
        tm.name.clone(),
        Schema::new(tm.columns.clone()),
        tm.primary_key.clone(),
        &tm.secondary,
        tm.total_slots,
        rows,
    )
}

/// Reassemble one overflow row's encoding, reading each chunk of the
/// chain through `page`.
fn read_overflow_chain(
    store: &mut PageStore,
    page: &mut [u8],
    head: u64,
    payload_len: u64,
) -> Result<Vec<u8>, EngineError> {
    let mut bytes = Vec::new();
    let mut next = head;
    let max_hops = payload_len / OVERFLOW_CAP as u64 + 2;
    let mut hops = 0u64;
    while next != NO_PAGE {
        hops += 1;
        if hops > max_hops {
            return Err(corrupt_meta(
                "overflow chain longer than its payload (cycle?)",
            ));
        }
        store.read(next, page)?;
        let (nxt, chunk) = page::overflow_chunk(page, next)?;
        bytes.extend_from_slice(chunk);
        next = nxt;
    }
    if bytes.len() as u64 != payload_len {
        return Err(corrupt_meta(format!(
            "overflow chain holds {} bytes, expected {payload_len}",
            bytes.len()
        )));
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------
// catalog.meta encode/decode
// ---------------------------------------------------------------------

type DecodedMeta = (u64, Vec<TableMeta>, Vec<(String, String)>);

fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn put_page_list(buf: &mut Vec<u8>, pages: &[u64]) {
    buf.extend_from_slice(&(pages.len() as u64).to_le_bytes());
    for &p in pages {
        buf.extend_from_slice(&p.to_le_bytes());
    }
}

fn get_page_list(r: &mut Cursor<&[u8]>) -> Result<Vec<u64>, EngineError> {
    let n = wal::get_u64(r)?;
    let remaining = r.get_ref().len() as u64 - r.position();
    if n > remaining / 8 {
        return Err(corrupt_meta(format!(
            "page list of {n} entries overruns the record"
        )));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(wal::get_u64(r)?);
    }
    Ok(out)
}

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
    let mut payload = Vec::new();
    for name in names {
        let tm = &snapshots[name].meta;
        payload.clear();
        payload.push(META_TAG_TABLE);
        wal::put_str(&mut payload, &tm.name);
        wal::put_columns(&mut payload, &tm.columns);
        wal::put_positions(&mut payload, &tm.primary_key);
        payload.extend_from_slice(&(tm.secondary.len() as u32).to_le_bytes());
        for (iname, cols, unique) in &tm.secondary {
            wal::put_str(&mut payload, iname);
            wal::put_positions(&mut payload, cols);
            payload.push(u8::from(*unique));
        }
        wal::put_u64(&mut payload, tm.total_slots);
        wal::put_u64(&mut payload, tm.live_rows);
        put_page_list(&mut payload, &tm.pages);
        put_page_list(&mut payload, &tm.overflow);
        frame_record(&mut out, &payload);
    }
    for (name, sql) in views {
        payload.clear();
        payload.push(META_TAG_VIEW);
        wal::put_str(&mut payload, name);
        wal::put_str(&mut payload, sql);
        frame_record(&mut out, &payload);
    }
    frame_record(&mut out, &[META_TAG_END]);

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
    let mut off = 16usize;
    loop {
        if bytes.len() - off < 8 {
            return Err(corrupt_meta("missing end marker"));
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        let payload = bytes
            .get(off + 8..off + 8 + len)
            .ok_or_else(|| corrupt_meta("record overruns the file"))?;
        if crc32(payload) != crc {
            return Err(corrupt_meta("record checksum mismatch"));
        }
        off += 8 + len;
        let mut r = Cursor::new(payload);
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)
            .map_err(|_| corrupt_meta("empty record"))?;
        match tag[0] {
            META_TAG_TABLE => {
                let name = wal::get_str(&mut r)?;
                let columns = wal::get_columns(&mut r)?;
                let primary_key = wal::get_positions(&mut r)?;
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
                    let mut u = [0u8; 1];
                    r.read_exact(&mut u)
                        .map_err(|_| corrupt_meta("truncated unique flag"))?;
                    secondary.push((iname, cols, u[0] != 0));
                }
                let total_slots = wal::get_u64(&mut r)?;
                let live_rows = wal::get_u64(&mut r)?;
                let pages = get_page_list(&mut r)?;
                let overflow = get_page_list(&mut r)?;
                if r.position() != payload.len() as u64 {
                    return Err(corrupt_meta("trailing bytes in table record"));
                }
                tables.push(TableMeta {
                    name,
                    columns,
                    primary_key,
                    secondary,
                    total_slots,
                    live_rows,
                    pages,
                    overflow,
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
                if off != bytes.len() {
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
    use crate::value::Value;

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

    /// A table spanning several heap pages.
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
            let (mut d, _) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
            let catalog = seed_catalog();
            d.checkpoint(&catalog).unwrap();
        }
        let (d, catalog) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
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

    /// The I/O bound: a checkpoint writes each page of each dirty table
    /// once and nothing else; an open reads each referenced page once.
    #[test]
    fn clean_tables_are_not_rewritten() {
        let dir = temp_dir("clean");
        let (mut d, _) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
        let mut catalog = seed_catalog();
        catalog.create_table(big_table()).unwrap();
        d.checkpoint(&catalog).unwrap();
        let written = d.pool_stats().pages_written;
        d.checkpoint(&catalog).unwrap();
        assert_eq!(
            d.pool_stats().pages_written,
            written,
            "clean checkpoint writes no pages"
        );

        let page_count = |m: &TableMeta| (m.pages.len() + m.overflow.len()) as u64;
        catalog
            .table_mut("big")
            .unwrap()
            .insert(vec![Value::Integer(0)])
            .unwrap();
        d.checkpoint(&catalog).unwrap();
        let big_pages = page_count(&d.snapshots["big"].meta);
        assert!(big_pages > 1, "big spans several pages");
        assert_eq!(
            d.pool_stats().pages_written,
            written + big_pages,
            "only the dirty table's pages are written, each once"
        );

        let referenced: u64 = d.snapshots.values().map(|s| page_count(&s.meta)).sum();
        drop(d);
        let (d, _) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
        let stats = d.pool_stats();
        assert_eq!(stats.misses, referenced, "each referenced page read once");
        assert_eq!((stats.hits, stats.evictions), (0, 0));
        assert_eq!(stats.pages_written, 0, "nothing replayed, nothing dirty");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shadow_paging_reuses_space_without_unbounded_growth() {
        let dir = temp_dir("shadow");
        let (mut d, mut catalog) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
        catalog.create_table(big_table()).unwrap();
        d.checkpoint(&catalog).unwrap();
        let after_first = d.store.num_pages();
        for _ in 0..5 {
            catalog
                .table_mut("big")
                .unwrap()
                .insert(vec![Value::Integer(0)])
                .unwrap();
            d.checkpoint(&catalog).unwrap();
        }
        // Each checkpoint rewrites ~the same page count; shadow paging
        // needs at most old+new live at once, so the file stays below
        // 3× the single-checkpoint footprint instead of growing 6×.
        assert!(
            d.store.num_pages() < after_first * 3,
            "pages grew unbounded: {} vs {after_first}",
            d.store.num_pages()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_tuples_take_the_overflow_path() {
        let dir = temp_dir("overflow");
        let big = "x".repeat(3 * page::PAGE_SIZE); // spans several pages
        {
            let (mut d, mut catalog) =
                Durability::open(&dir, DurabilityOptions::default()).unwrap();
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
        let (_, catalog) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
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
            let (mut d, _) = Durability::open(&dir, DurabilityOptions::default()).unwrap();
            d.checkpoint(&seed_catalog()).unwrap();
        }
        let meta_path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&meta_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&meta_path, &bytes).unwrap();
        let err = Durability::open(&dir, DurabilityOptions::default()).unwrap_err();
        assert!(err.to_string().contains("corrupt catalog meta"), "{err}");

        // Sizes inside a record whose CRC is valid are not trusted
        // either: a page list claiming 2^61 entries, a table claiming
        // 2^60 live rows.
        for (live_rows, page_list_len) in [(0, 1u64 << 61), (1u64 << 60, 0)] {
            let mut payload = vec![META_TAG_TABLE];
            wal::put_str(&mut payload, "t");
            wal::put_columns(&mut payload, &[Column::new("v", DataType::Integer)]);
            wal::put_positions(&mut payload, &[]);
            payload.extend_from_slice(&0u32.to_le_bytes()); // no secondary indexes
            wal::put_u64(&mut payload, 0); // total_slots
            wal::put_u64(&mut payload, live_rows);
            wal::put_u64(&mut payload, page_list_len); // heap pages, no entries
            wal::put_u64(&mut payload, 0); // overflow pages
            let mut bytes = META_MAGIC.to_vec();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            frame_record(&mut bytes, &payload);
            frame_record(&mut bytes, &[META_TAG_END]);
            std::fs::write(&meta_path, &bytes).unwrap();
            let err = Durability::open(&dir, DurabilityOptions::default()).unwrap_err();
            assert!(err.to_string().contains("corrupt catalog meta"), "{err}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

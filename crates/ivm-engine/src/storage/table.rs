//! Columnar table with tombstone deletes and primary-key maintenance.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::EngineError;
use crate::exec::batch::{ColumnData, RowBatch};
use crate::expr::VectorKernel;
use crate::index::TableIndex;
use crate::schema::Schema;
use crate::storage::wal::{self, Wal, WalRecord};
use crate::value::Value;

/// Process-wide generation counter; see [`Table::generation`]. Every
/// draw — table creation or row mutation, on any table — yields a fresh
/// value, so a generation observed on one table instance can never be
/// re-issued to another (or to the same table later).
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// [`Table::equality_lookup`] calls made by this thread.
    static EQUALITY_LOOKUPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
impl Table {
    /// How many index lookups the calling thread has made so far (a scan
    /// node must ask once).
    pub(crate) fn equality_lookups() -> usize {
        EQUALITY_LOOKUPS.with(std::cell::Cell::get)
    }
}

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// An in-memory, column-major table.
///
/// Rows are append-only with tombstone deletion (like an analytical engine's
/// row-group storage); row ids are stable until [`Table::compact`]. A table
/// owns at most one index, its ART-backed primary key, which every
/// mutation keeps in sync.
#[derive(Debug)]
pub struct Table {
    /// Table name as stored in the catalog.
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Positions of the primary key columns (empty = no PK).
    pub primary_key: Vec<usize>,
    /// `CREATE INDEX` definitions as `(name, columns)`. They are logged,
    /// checkpointed and dropped by name, so DDL written for DuckDB or
    /// PostgreSQL runs unchanged, but they build nothing: no query would
    /// read a non-unique index, and the primary key is the one index.
    index_defs: Vec<(String, Vec<usize>)>,
    /// All row storage — column vectors, tombstone bitmap, and the key —
    /// behind a single `Arc` so [`Table::snapshot`] can freeze the table
    /// with one refcount bump. The writer reaches mutable storage through
    /// one `Arc::make_mut` per operation: a no-op uniqueness check while
    /// unshared (the single-session path mutates in place exactly as
    /// before), and one copy-on-write clone of the storage on the first
    /// mutation after a snapshot froze it.
    data: Arc<TableData>,
    /// Set whenever [`Table::snapshot`] hands `data` to a reader; cleared
    /// once a mutation re-establishes unique ownership via
    /// [`Arc::make_mut`]. While clear, [`Table::data_mut`] skips the
    /// atomic uniqueness check entirely: `&mut self` plus "no snapshot
    /// taken since the last mutation" proves the refcount is 1, so the
    /// per-row DML hot path pays a plain branch instead of a CAS.
    /// Atomic only because `snapshot` takes `&self` and tables are shared
    /// across scan workers; every access from `&mut self` uses `get_mut`.
    maybe_shared: AtomicBool,
    live: usize,
    /// Bumped on every row mutation (insert/delete/update/truncate/
    /// compact); external caches keyed on row content (e.g. the
    /// delta-ingest victim index in `ivm-core`) validate against it.
    generation: u64,
    /// When attached (durable databases only), every mutation logs a
    /// logical redo record here. `None` in in-memory mode and during
    /// WAL replay — mutations then behave exactly as before.
    wal: Option<Arc<Wal>>,
}

/// The shareable storage half of a [`Table`]: everything a snapshot
/// freezes. Cloned as a unit by `Arc::make_mut` when the writer first
/// mutates storage a snapshot still holds.
#[derive(Debug, Clone)]
struct TableData {
    columns: Vec<Vec<Value>>,
    deleted: Vec<bool>,
    pk_index: Option<TableIndex>,
}

impl Table {
    /// Create an empty table. When `primary_key` is non-empty a unique
    /// ART index is created over those column positions.
    pub fn new(name: impl Into<String>, schema: Schema, primary_key: Vec<usize>) -> Table {
        let pk_index = (!primary_key.is_empty()).then(|| TableIndex::new(primary_key.clone()));
        let ncols = schema.len();
        Table {
            name: name.into(),
            schema,
            primary_key,
            index_defs: Vec::new(),
            data: Arc::new(TableData {
                columns: vec![Vec::new(); ncols],
                deleted: Vec::new(),
                pk_index,
            }),
            maybe_shared: AtomicBool::new(false),
            live: 0,
            generation: next_generation(),
            wal: None,
        }
    }

    /// Mutable storage access. The common case — no snapshot taken since
    /// the last mutation — is a plain branch on [`Table::maybe_shared`]
    /// and a pointer cast: no atomic operation at all. The first mutation
    /// after a snapshot goes through [`Arc::make_mut`], which clones the
    /// storage if the snapshot still holds it, re-establishing unique
    /// ownership for every following call.
    fn data_mut(&mut self) -> &mut TableData {
        if *self.maybe_shared.get_mut() {
            Arc::make_mut(&mut self.data);
            *self.maybe_shared.get_mut() = false;
        }
        // SAFETY: `self.data` is uniquely owned here. `maybe_shared` is
        // set by every clone of the Arc (all of which live in
        // [`Table::snapshot`]) and only cleared above, immediately after
        // `make_mut` re-established uniqueness; `&mut self` excludes a
        // concurrent `snapshot`. This is `Arc::get_mut_unchecked` minus
        // the unstable feature gate.
        unsafe { &mut *(Arc::as_ptr(&self.data) as *mut TableData) }
    }

    /// Attach (or detach) the redo log every mutation reports to.
    pub(crate) fn set_wal(&mut self, wal: Option<Arc<Wal>>) {
        self.wal = wal;
    }

    /// The `CREATE INDEX` definitions, `(name, columns)`, which the
    /// durable checkpoint records.
    pub(crate) fn index_defs(&self) -> &[(String, Vec<usize>)] {
        &self.index_defs
    }

    /// Rebuild a table from checkpointed parts, preserving the physical
    /// slot layout: `rows` are `(slot_id, row)` pairs and `total_slots`
    /// the original slot count including tombstones, so row ids (and
    /// therefore scan order) match the pre-checkpoint table exactly.
    /// The primary key is rebuilt from the rows.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        primary_key: Vec<usize>,
        index_defs: Vec<(String, Vec<usize>)>,
        total_slots: u64,
        rows: Vec<(u64, Vec<Value>)>,
    ) -> Result<Table, EngineError> {
        let total = total_slots as usize;
        let mut table = Table::new(name, schema, primary_key);
        let mut columns = Vec::with_capacity(table.schema.len());
        for _ in 0..table.schema.len() {
            columns.push(slot_vec(&table.name, total, Value::Null)?);
        }
        let mut deleted = slot_vec(&table.name, total, true)?;
        for (slot, row) in rows {
            let idx = slot as usize;
            if idx >= total {
                return Err(EngineError::execution(format!(
                    "corrupt table {}: slot {slot} beyond {total} slots",
                    table.name
                )));
            }
            if !deleted[idx] {
                return Err(EngineError::execution(format!(
                    "corrupt table {}: slot {slot} stored twice",
                    table.name
                )));
            }
            if row.len() != table.schema.len() {
                return Err(EngineError::execution(format!(
                    "corrupt table {}: slot {slot} has {} columns, schema has {}",
                    table.name,
                    row.len(),
                    table.schema.len()
                )));
            }
            for (col, value) in columns.iter_mut().zip(row) {
                col[idx] = value;
            }
            deleted[idx] = false;
            table.live += 1;
        }
        {
            let data = table.data_mut();
            data.columns = columns;
            data.deleted = deleted;
        }
        table.index_defs = index_defs;
        table.rebuild_pk_index()?;
        Ok(table)
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.live
    }

    /// Total slots including tombstones.
    pub fn total_slots(&self) -> usize {
        self.data.deleted.len()
    }

    /// Whether the table has a primary key index.
    pub fn has_pk_index(&self) -> bool {
        self.data.pk_index.is_some()
    }

    /// Borrow the primary key index.
    pub fn pk_index(&self) -> Option<&TableIndex> {
        self.data.pk_index.as_ref()
    }

    /// Validate a row against arity, types, and NOT NULL.
    fn check_row(&self, row: &[Value]) -> Result<(), EngineError> {
        if row.len() != self.schema.len() {
            return Err(EngineError::execution(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if value.is_null() {
                if col.not_null {
                    return Err(EngineError::constraint(format!(
                        "NOT NULL constraint failed: {}.{}",
                        self.name, col.name
                    )));
                }
                continue;
            }
            if let Some(vt) = value.data_type() {
                if !col.ty.accepts(vt) {
                    return Err(EngineError::execution(format!(
                        "type mismatch for {}.{}: expected {}, got {}",
                        self.name, col.name, col.ty, vt
                    )));
                }
            }
        }
        Ok(())
    }

    /// Append a row, enforcing the PK. Returns the new row id.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<u64, EngineError> {
        self.check_row(&row)?;
        if let Some(pk) = &self.data.pk_index {
            if pk.get_encoded(&pk.key_of(&row)).is_some() {
                return Err(self.duplicate_key());
            }
        }
        Ok(self.append_unchecked(row))
    }

    /// Append several rows — one statement's worth — or none: every row
    /// is checked, and its key against the table and the rows before it,
    /// before the first is logged or written.
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<(), EngineError> {
        let mut new_keys = std::collections::HashSet::new();
        for row in &rows {
            self.check_row(row)?;
            let Some(pk) = &self.data.pk_index else {
                continue;
            };
            let key = pk.key_of(row);
            if pk.get_encoded(&key).is_some() || (rows.len() > 1 && !new_keys.insert(key)) {
                return Err(self.duplicate_key());
            }
        }
        for row in rows {
            self.append_unchecked(row);
        }
        Ok(())
    }

    fn duplicate_key(&self) -> EngineError {
        EngineError::constraint(format!("duplicate key in table {}", self.name))
    }

    /// Mutation counter: changes whenever any row is inserted, deleted,
    /// updated, truncated, or renumbered by compaction. Values are drawn
    /// from one process-wide counter, so they are unique across table
    /// instances *and* across time — a cached structure stamped with a
    /// generation can detect staleness even through a drop-and-recreate
    /// under the same name. Lets callers cache row-content-derived
    /// structures safely.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Freeze a copy-on-write snapshot of this table. The clone shares
    /// the entire storage — column vectors, tombstone bitmap, and the
    /// primary-key ART — by one `Arc` reference: a single refcount bump, no
    /// row is copied. The writer's next mutation goes through
    /// [`Arc::make_mut`], which clones the storage once while a snapshot
    /// still shares it, so snapshot readers observe a consistent
    /// immutable image while the writer proceeds. The snapshot carries
    /// no WAL handle: it is a read-only view, never a durability
    /// participant.
    pub fn snapshot(&self) -> Table {
        // Relaxed suffices: the snapshot Arc clone below synchronizes the
        // refcount itself, and the writer rechecks ownership through
        // `make_mut` whenever the flag is set.
        self.maybe_shared.store(true, Ordering::Relaxed);
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            primary_key: self.primary_key.clone(),
            index_defs: self.index_defs.clone(),
            data: Arc::clone(&self.data),
            maybe_shared: AtomicBool::new(true),
            live: self.live,
            generation: self.generation,
            wal: None,
        }
    }

    fn append_unchecked(&mut self, row: Vec<Value>) -> u64 {
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::Insert {
                table: self.name.clone(),
                row: row.clone(),
            });
        }
        self.generation = next_generation();
        let data = self.data_mut();
        let id = data.deleted.len() as u64;
        if let Some(pk) = &mut data.pk_index {
            let key = pk.key_of(&row);
            pk.insert(&key, id);
        }
        for (col, value) in data.columns.iter_mut().zip(row) {
            col.push(value);
        }
        data.deleted.push(false);
        self.live += 1;
        id
    }

    /// Tombstone a row by id.
    pub fn delete(&mut self, row_id: u64) -> Result<(), EngineError> {
        self.check_live(row_id)?;
        let idx = row_id as usize;
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::Delete {
                table: self.name.clone(),
                row_id,
            });
        }
        let data = self.data_mut();
        if let Some(pk) = &mut data.pk_index {
            let key = pk.key_at(&data.columns, idx);
            pk.remove(&key);
        }
        data.deleted[idx] = true;
        self.live -= 1;
        self.generation = next_generation();
        Ok(())
    }

    /// Replace the row contents in place, keeping the row id: one row's
    /// [`Table::update_rows`].
    pub fn update(&mut self, row_id: u64, new_row: Vec<Value>) -> Result<(), EngineError> {
        self.update_rows(vec![(row_id, new_row)])
    }

    /// Replace several rows in place — one statement's worth — each
    /// keeping its row id, applied in ascending row-id order. The key
    /// is checked against the final state, not each intermediate one:
    /// the new keys must be unique among themselves, and none may belong
    /// to a row outside `changes` (so `SET id = id + 1` over 1, 5, 6 and
    /// `SET id = 3 - id` over 1, 2 succeed). Nothing is logged or written
    /// unless every row passes. Each row is then logged and applied on
    /// its own ([`WalRecord::Update`]), the same move replay makes.
    pub fn update_rows(&mut self, mut changes: Vec<(u64, Vec<Value>)>) -> Result<(), EngineError> {
        changes.sort_by_key(|c| c.0);
        let mut new_keys = std::collections::HashSet::new();
        for (row_id, row) in &changes {
            self.check_row(row)?;
            self.check_live(*row_id)?;
            let Some(pk) = &self.data.pk_index else {
                continue;
            };
            let key = pk.key_of(row);
            let taken = pk.get_encoded(&key).is_some_and(|owner| {
                owner != *row_id && changes.binary_search_by_key(&owner, |c| c.0).is_err()
            });
            if taken || (changes.len() > 1 && !new_keys.insert(key)) {
                return Err(self.duplicate_key());
            }
        }
        for (row_id, row) in changes {
            self.apply_update(row_id, row);
        }
        Ok(())
    }

    /// Apply one replayed [`WalRecord::Update`]. The key is not checked:
    /// the logged statement passed [`Table::update_rows`] as a whole,
    /// and the state after a prefix of its records need not.
    pub(crate) fn replay_update(
        &mut self,
        row_id: u64,
        new_row: Vec<Value>,
    ) -> Result<(), EngineError> {
        self.check_live(row_id)?;
        self.apply_update(row_id, new_row);
        Ok(())
    }

    fn check_live(&self, row_id: u64) -> Result<(), EngineError> {
        match self.data.deleted.get(row_id as usize) {
            Some(false) => Ok(()),
            _ => Err(EngineError::execution(format!(
                "row {row_id} does not exist in table {}",
                self.name
            ))),
        }
    }

    /// Log and write one checked row update. The row's old key is removed
    /// only while it still names the row: an earlier row of the same
    /// statement may have taken it over.
    fn apply_update(&mut self, row_id: u64, new_row: Vec<Value>) {
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::Update {
                table: self.name.clone(),
                row_id,
                row: new_row.clone(),
            });
        }
        let idx = row_id as usize;
        let data = self.data_mut();
        if let Some(pk) = &mut data.pk_index {
            let old_key = pk.key_at(&data.columns, idx);
            let new_key = pk.key_of(&new_row);
            if old_key != new_key {
                if pk.get_encoded(&old_key) == Some(row_id) {
                    pk.remove(&old_key);
                }
                pk.insert(&new_key, row_id);
            }
        }
        for (col, value) in data.columns.iter_mut().zip(new_row) {
            col[idx] = value;
        }
        self.generation = next_generation();
    }

    /// Materialize the row with the given id (caller must know it's live).
    pub fn row(&self, row_id: u64) -> Vec<Value> {
        let idx = row_id as usize;
        self.data.columns.iter().map(|c| c[idx].clone()).collect()
    }

    /// Row id for a primary-key value, via the ART.
    pub fn lookup_pk(&self, key_values: &[Value]) -> Option<u64> {
        self.data.pk_index.as_ref()?.get(key_values)
    }

    /// Find a live row equal to `target` without materializing rows
    /// (column-major comparison; PK fast path when available). Used by the
    /// cross-system delta ingest to locate deletion victims.
    pub fn find_row(&self, target: &[Value]) -> Option<u64> {
        if target.len() != self.schema.len() {
            return None;
        }
        if let Some(pk) = &self.data.pk_index {
            let key: Vec<Value> = pk.columns.iter().map(|&c| target[c].clone()).collect();
            let id = pk.get(&key)?;
            let idx = id as usize;
            let matches = self
                .data
                .columns
                .iter()
                .zip(target)
                .all(|(col, t)| &col[idx] == t);
            return matches.then_some(id);
        }
        // Probe cheap-to-compare columns first: an integer mismatch is one
        // tag-and-word compare, a text mismatch walks bytes. Column order
        // doesn't change which rows match.
        let mut order: Vec<usize> = (0..target.len()).collect();
        order.sort_by_key(|&c| matches!(target[c], Value::Varchar(_)));
        let data = &self.data;
        (0..data.deleted.len())
            .find(|&i| !data.deleted[i] && order.iter().all(|&c| data.columns[c][i] == target[c]))
            .map(|i| i as u64)
    }

    /// Iterate live rows as `(row_id, row)`.
    pub fn scan(&self) -> impl Iterator<Item = (u64, Vec<Value>)> + '_ {
        (0..self.data.deleted.len())
            .filter(|&i| !self.data.deleted[i])
            .map(move |i| (i as u64, self.row(i as u64)))
    }

    /// Borrow one storage column.
    pub fn column(&self, index: usize) -> &[Value] {
        self.data.columns[index].as_slice()
    }

    /// True when the table holds no tombstones (a clean append-only window
    /// end to end — the common shape of delta tables). Scans then skip all
    /// per-window tombstone bookkeeping.
    pub fn is_clean(&self) -> bool {
        self.live == self.data.deleted.len()
    }

    /// Build the zero-copy batch for the physical slot `window`. Returns
    /// `None` when the window holds no live rows. `clean` skips the
    /// tombstone check, for tables known to be append-only.
    fn window_batch(&self, window: Range<usize>, clean: bool) -> Option<RowBatch<'_>> {
        if clean || self.data.deleted[window.clone()].iter().all(|&d| !d) {
            // Clean window: contiguous slices, no selection vector.
            let columns = self
                .data
                .columns
                .iter()
                .map(|c| ColumnData::borrowed(&c[window.clone()]))
                .collect();
            return Some(RowBatch::new(columns, window.len()));
        }
        let live: Arc<Vec<u32>> = Arc::new(
            window
                .filter(|&i| !self.data.deleted[i])
                .map(|i| i as u32)
                .collect(),
        );
        if live.is_empty() {
            return None;
        }
        let rows = live.len();
        let columns = self
            .data
            .columns
            .iter()
            .map(|c| ColumnData::borrowed_with_sel(&c[..], Arc::clone(&live)))
            .collect();
        Some(RowBatch::new(columns, rows))
    }

    /// The one window loop under every batched scan: `slots` (clamped to
    /// the table) cut into windows of `batch_size` slots, each yielded
    /// with its zero-copy batch of live rows; windows holding none are
    /// skipped. Windows never straddle a range edge, so the windows of
    /// consecutive ranges are, in order, live row for live row, those of
    /// the ranges' union.
    fn windows(
        &self,
        slots: Range<usize>,
        batch_size: usize,
    ) -> impl Iterator<Item = (Range<usize>, RowBatch<'_>)> + '_ {
        let batch_size = batch_size.max(1);
        let end = slots.end.min(self.data.deleted.len());
        let clean = self.is_clean();
        let mut start = slots.start;
        std::iter::from_fn(move || {
            while start < end {
                let window = start..(start + batch_size).min(end);
                start = window.end;
                if let Some(batch) = self.window_batch(window.clone(), clean) {
                    return Some((window, batch));
                }
            }
            None
        })
    }

    /// The one batched scan: the live rows of the physical slot range
    /// `slots`, lazily, in [`RowBatch`]es of up to `batch_size` rows that
    /// *borrow* the column vectors — tombstone-free windows as plain
    /// slices, windows with deletions through one selection vector shared
    /// by all columns; no `Value` is cloned. A pushed-down `kernel` runs
    /// once per window and forwards a composed selection; windows that
    /// keep nothing are skipped. The whole table is `0..total_slots()`,
    /// one morsel is whatever a [`MorselCursor`] handed out: concatenating
    /// the batches of consecutive ranges reproduces the full scan's rows
    /// in the full scan's order.
    pub fn scan_range(
        &self,
        slots: Range<usize>,
        batch_size: usize,
        kernel: Option<Arc<VectorKernel>>,
    ) -> impl Iterator<Item = Result<RowBatch<'_>, EngineError>> + '_ {
        self.windows(slots, batch_size)
            .filter_map(move |(_, batch)| match &kernel {
                None => Some(Ok(batch)),
                Some(kernel) => match kernel.select(&batch) {
                    Ok(keep) => batch.retain(keep).map(Ok),
                    Err(e) => Some(Err(e)),
                },
            })
    }

    /// A zero-copy batch over explicit live row ids (the index point-read
    /// path).
    pub fn batch_from_row_ids(&self, ids: &[u64]) -> RowBatch<'_> {
        let sel: Arc<Vec<u32>> = Arc::new(ids.iter().map(|&id| id as u32).collect());
        let rows = sel.len();
        let columns = self
            .data
            .columns
            .iter()
            .map(|c| ColumnData::borrowed_with_sel(&c[..], Arc::clone(&sel)))
            .collect();
        RowBatch::new(columns, rows)
    }

    /// Answer a conjunction of `column = value` predicates through the
    /// primary key, if the equality columns cover it. Returns the matching
    /// live row ids (zero or one), or `None` when the key does not apply
    /// and the caller must scan.
    pub fn equality_lookup(&self, eq: &[(usize, Value)]) -> Option<Vec<u64>> {
        if eq.is_empty() {
            return None;
        }
        #[cfg(test)]
        EQUALITY_LOOKUPS.with(|n| n.set(n.get() + 1));
        let pk = self.data.pk_index.as_ref()?;
        let key: Vec<Value> = pk
            .columns
            .iter()
            .map(|c| eq.iter().find(|(i, _)| i == c).map(|(_, v)| v.clone()))
            .collect::<Option<_>>()?;
        Some(pk.get(&key).into_iter().collect())
    }

    /// Ids of the live rows of the physical slot window `slots` matching
    /// a compiled predicate, found through chunked vectorized evaluation
    /// instead of per-row materialization — the morsel-granular unit the
    /// `UPDATE`/`DELETE` victim scan fans out over. Ids come back in slot
    /// order, so concatenating per-morsel results in morsel order
    /// reproduces one scan of the whole table exactly.
    pub fn filter_row_ids_range(
        &self,
        slots: Range<usize>,
        batch_size: usize,
        kernel: &VectorKernel,
    ) -> Result<Vec<u64>, EngineError> {
        let mut out = Vec::new();
        for (window, batch) in self.windows(slots, batch_size) {
            let keep = kernel.select(&batch)?;
            if keep.is_empty() {
                continue;
            }
            if batch.num_rows() == window.len() {
                // Clean window: logical row i is physical window.start + i.
                out.extend(keep.iter().map(|&i| (window.start + i as usize) as u64));
            } else {
                let live: Vec<u64> = window
                    .filter(|&i| !self.data.deleted[i])
                    .map(|i| i as u64)
                    .collect();
                out.extend(keep.iter().map(|&i| live[i as usize]));
            }
        }
        Ok(out)
    }

    /// Iterate the physical slot ids of live rows in slot order, without
    /// materializing an id vector (whole-table passes like delta-ingest
    /// victim location stream this; double-ended so reverse-scan index
    /// builds need no transient allocation either).
    pub fn live_slot_ids(&self) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.data
            .deleted
            .iter()
            .enumerate()
            .filter(|(_, &d)| !d)
            .map(|(i, _)| i as u64)
    }

    /// Delete every row (keeps schema and key, emptied).
    pub fn truncate(&mut self) {
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::Truncate {
                table: self.name.clone(),
            });
        }
        // Unshared storage clears in place, keeping its capacity — delta
        // tables are truncated every refresh cycle and immediately
        // refilled to a similar size. Storage a snapshot still holds is
        // replaced wholesale instead: a clear through `Arc::make_mut`
        // would first copy the shared contents, only to discard them.
        let shared = *self.maybe_shared.get_mut() && Arc::get_mut(&mut self.data).is_none();
        if shared {
            let old = &self.data;
            let fresh = TableData {
                columns: vec![Vec::new(); old.columns.len()],
                deleted: Vec::new(),
                pk_index: old
                    .pk_index
                    .as_ref()
                    .map(|pk| TableIndex::new(pk.columns.clone())),
            };
            self.data = Arc::new(fresh);
            *self.maybe_shared.get_mut() = false;
        } else {
            let data = self.data_mut();
            for col in &mut data.columns {
                col.clear();
            }
            data.deleted.clear();
            if let Some(pk) = &mut data.pk_index {
                pk.clear();
            }
        }
        self.live = 0;
        self.generation = next_generation();
    }

    /// Drop tombstones and renumber rows; rebuilds the primary key.
    pub fn compact(&mut self) {
        if self.live == self.data.deleted.len() {
            return;
        }
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::Compact {
                table: self.name.clone(),
            });
        }
        let keep: Vec<usize> = (0..self.data.deleted.len())
            .filter(|&i| !self.data.deleted[i])
            .collect();
        let shared = *self.maybe_shared.get_mut() && Arc::get_mut(&mut self.data).is_none();
        match (!shared).then(|| self.data_mut()) {
            // Sole owner: steal the kept values without cloning.
            Some(data) => {
                for col in &mut data.columns {
                    let mut next = Vec::with_capacity(keep.len());
                    for &i in &keep {
                        next.push(std::mem::replace(&mut col[i], Value::Null));
                    }
                    *col = next;
                }
                data.deleted = vec![false; keep.len()];
            }
            // A snapshot still shares the storage: leave it intact and
            // build a compacted copy (the key is rebuilt below).
            None => {
                let old = &self.data;
                self.data = Arc::new(TableData {
                    columns: old
                        .columns
                        .iter()
                        .map(|col| keep.iter().map(|&i| col[i].clone()).collect())
                        .collect(),
                    deleted: vec![false; keep.len()],
                    pk_index: None,
                });
            }
        }
        self.live = keep.len();
        self.generation = next_generation();
        self.rebuild_pk_index()
            .expect("compaction keeps the live rows, whose keys were unique");
    }

    /// Record a `CREATE INDEX` definition. It builds nothing (see
    /// [`Table::index_defs`]); a name already defined on this table is an
    /// error.
    pub(crate) fn create_index_def(
        &mut self,
        name: String,
        columns: Vec<usize>,
    ) -> Result<(), EngineError> {
        if self.index_defs.iter().any(|(n, _)| *n == name) {
            return Err(EngineError::catalog(format!("index {name} already exists")));
        }
        self.check_key_columns(&columns)?;
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::CreateIndex {
                table: self.name.clone(),
                name: name.clone(),
                columns: columns.clone(),
            });
        }
        self.index_defs.push((name, columns));
        Ok(())
    }

    /// Remove a `CREATE INDEX` definition by name; false when this table
    /// has none of that name.
    pub(crate) fn drop_index_def(&mut self, name: &str) -> bool {
        let Some(pos) = self.index_defs.iter().position(|(n, _)| n == name) else {
            return false;
        };
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::DropIndex {
                table: self.name.clone(),
                name: name.to_string(),
            });
        }
        self.index_defs.remove(pos);
        true
    }

    /// Key positions come from SQL binding or from a replayed WAL record;
    /// the latter are checked here, where the width is known.
    fn check_key_columns(&self, columns: &[usize]) -> Result<(), EngineError> {
        wal::check_positions(columns, self.schema.len())
            .map_err(|e| EngineError::catalog(format!("corrupt index on {}: {e}", self.name)))
    }

    /// The one bulk primary-key build: the live rows are scanned once and
    /// the ART populated directly, DuckDB's build-after-populate strategy
    /// (the "one-time overhead" the paper measures). Errors when two live
    /// rows share a key.
    fn build_pk_index(&self, columns: Vec<usize>) -> Result<TableIndex, EngineError> {
        let mut pk = TableIndex::new(columns);
        for slot in self.live_slot_ids() {
            let key = pk.key_at(&self.data.columns, slot as usize);
            if pk.insert(&key, slot).is_some() {
                return Err(EngineError::constraint(format!(
                    "duplicate key while building primary key index on {}",
                    self.name
                )));
            }
        }
        Ok(pk)
    }

    /// Rebuild the primary key from the current rows (after a load or a
    /// renumbering). Callers reach this with unshared storage, so
    /// `data_mut` is a plain branch, not a copy.
    fn rebuild_pk_index(&mut self) -> Result<(), EngineError> {
        if !self.primary_key.is_empty() {
            let pk = self.build_pk_index(self.primary_key.clone())?;
            self.data_mut().pk_index = Some(pk);
        }
        Ok(())
    }

    /// Attach a primary key index after creation (bulk build). Errors on
    /// duplicate keys.
    pub fn add_pk_index(&mut self, columns: Vec<usize>) -> Result<(), EngineError> {
        self.check_key_columns(&columns)?;
        let pk = self.build_pk_index(columns.clone())?;
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::AddPk {
                table: self.name.clone(),
                columns: columns.clone(),
            });
        }
        self.primary_key = columns;
        self.data_mut().pk_index = Some(pk);
        Ok(())
    }
}

/// `vec![fill; n]` for `n` slots read from disk — a clean error instead
/// of a capacity-overflow panic when the count is absurd.
fn slot_vec<T: Clone>(table: &str, n: usize, fill: T) -> Result<Vec<T>, EngineError> {
    let mut slots = Vec::new();
    slots.try_reserve_exact(n).map_err(|_| {
        EngineError::execution(format!(
            "corrupt table {table}: {n} slots cannot be allocated"
        ))
    })?;
    slots.resize(n, fill);
    Ok(slots)
}

/// A lock-free work-sharing cursor over a table's physical slot space.
///
/// The slot range `[0, total_slots)` is cut into fixed-size *morsels*;
/// worker threads [`claim`](MorselCursor::claim) morsels dynamically (a
/// single atomic `fetch_add`), so fast workers naturally steal more work
/// — the HyPer morsel-driven scheduling discipline. Each claim returns a
/// sequence number (`start / morsel_size`) that callers use to restore
/// the serial scan order when merging per-morsel results.
#[derive(Debug)]
pub struct MorselCursor {
    next: AtomicUsize,
    total: usize,
    morsel: usize,
    stopped: AtomicBool,
}

impl MorselCursor {
    /// A cursor over `total_slots` physical slots in morsels of
    /// `morsel_size` (clamped to ≥ 1) slots.
    pub fn new(total_slots: usize, morsel_size: usize) -> MorselCursor {
        MorselCursor {
            next: AtomicUsize::new(0),
            total: total_slots,
            morsel: morsel_size.max(1),
            stopped: AtomicBool::new(false),
        }
    }

    /// Claim the next unclaimed morsel: `(sequence number, slot range)`.
    /// Returns `None` when the table is exhausted or the cursor has been
    /// [`stop`](MorselCursor::stop)ped.
    pub fn claim(&self) -> Option<(usize, Range<usize>)> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let start = self.next.fetch_add(self.morsel, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some((
            start / self.morsel,
            start..(start + self.morsel).min(self.total),
        ))
    }

    /// Poison the cursor so no further morsels are handed out (a worker
    /// hit an error; the others should wind down).
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Number of morsels the slot space divides into.
    pub fn num_morsels(&self) -> usize {
        self.total.div_ceil(self.morsel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn groups_table() -> Table {
        Table::new(
            "groups",
            Schema::new(vec![
                Column::new("group_index", DataType::Varchar),
                Column::new("group_value", DataType::Integer),
            ]),
            vec![],
        )
    }

    fn keyed_table() -> Table {
        Table::new(
            "v",
            Schema::new(vec![
                Column::new("k", DataType::Varchar),
                Column::new("total", DataType::Integer),
            ]),
            vec![0],
        )
    }

    #[test]
    fn insert_scan_delete() {
        let mut t = groups_table();
        let id0 = t.insert(vec![Value::from("a"), Value::Integer(1)]).unwrap();
        let id1 = t.insert(vec![Value::from("b"), Value::Integer(2)]).unwrap();
        assert_eq!(t.live_rows(), 2);
        t.delete(id0).unwrap();
        assert_eq!(t.live_rows(), 1);
        let rows: Vec<_> = t.scan().collect();
        assert_eq!(rows, vec![(id1, vec![Value::from("b"), Value::Integer(2)])]);
        assert!(t.delete(id0).is_err(), "double delete must fail");
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = groups_table();
        assert!(t.insert(vec![Value::from("a")]).is_err());
        assert!(t
            .insert(vec![Value::Integer(1), Value::Integer(2)])
            .is_err());
        // Integer widening into DOUBLE columns is allowed.
        let mut t2 = Table::new(
            "d",
            Schema::new(vec![Column::new("x", DataType::Double)]),
            vec![],
        );
        t2.insert(vec![Value::Integer(3)]).unwrap();
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Integer)]),
            vec![],
        );
        assert!(t.insert(vec![Value::Null]).is_err());
    }

    #[test]
    fn pk_uniqueness_and_lookup() {
        let mut t = keyed_table();
        t.insert(vec![Value::from("a"), Value::Integer(1)]).unwrap();
        let err = t.insert(vec![Value::from("a"), Value::Integer(9)]);
        assert!(err.is_err(), "duplicate key must fail");
        assert_eq!(t.lookup_pk(&[Value::from("a")]), Some(0));
        assert_eq!(t.lookup_pk(&[Value::from("zz")]), None);
    }

    #[test]
    fn update_maintains_pk() {
        let mut t = keyed_table();
        let id = t.insert(vec![Value::from("a"), Value::Integer(1)]).unwrap();
        t.update(id, vec![Value::from("b"), Value::Integer(2)])
            .unwrap();
        assert_eq!(t.lookup_pk(&[Value::from("a")]), None);
        assert_eq!(t.lookup_pk(&[Value::from("b")]), Some(id));
        // Updating into an existing key must fail.
        t.insert(vec![Value::from("c"), Value::Integer(3)]).unwrap();
        assert!(t
            .update(id, vec![Value::from("c"), Value::Integer(9)])
            .is_err());
    }

    #[test]
    fn compact_renumbers_and_rebuilds() {
        let mut t = keyed_table();
        for (k, v) in [("a", 1i64), ("b", 2), ("c", 3)] {
            t.insert(vec![Value::from(k), Value::Integer(v)]).unwrap();
        }
        t.delete(1).unwrap();
        t.compact();
        assert_eq!(t.total_slots(), 2);
        assert_eq!(t.live_rows(), 2);
        let ida = t.lookup_pk(&[Value::from("a")]).unwrap();
        let idc = t.lookup_pk(&[Value::from("c")]).unwrap();
        assert_eq!(t.row(ida)[1], Value::Integer(1));
        assert_eq!(t.row(idc)[1], Value::Integer(3));
    }

    #[test]
    fn index_defs_are_recorded_not_built() {
        let mut t = groups_table();
        for (k, v) in [("a", 1i64), ("b", 2), ("a", 3)] {
            t.insert(vec![Value::from(k), Value::Integer(v)]).unwrap();
        }
        t.create_index_def("idx_g".into(), vec![0]).unwrap();
        assert_eq!(t.index_defs(), [("idx_g".to_string(), vec![0])]);
        assert!(!t.has_pk_index(), "a definition builds no index");
        assert!(t.create_index_def("idx_g".into(), vec![1]).is_err());
        assert!(t.create_index_def("idx_bad".into(), vec![2]).is_err());
        // A key over duplicate group keys must fail, and leave no key.
        assert!(t.add_pk_index(vec![0]).is_err());
        assert!(!t.has_pk_index());
        assert!(t.drop_index_def("idx_g"));
        assert!(!t.drop_index_def("idx_g"));
        assert!(t.index_defs().is_empty());
    }

    /// A checkpointed table whose rows repeat a key is corrupt: loading
    /// it must fail, not keep the last row under the key.
    #[test]
    fn from_parts_rejects_a_repeated_key() {
        let load = |primary_key| {
            let row = |v| vec![Value::from("a"), Value::Integer(v)];
            let rows = vec![(0, row(1)), (1, row(2))];
            Table::from_parts(
                "v".into(),
                keyed_table().schema,
                primary_key,
                vec![],
                2,
                rows,
            )
        };
        assert!(load(vec![0]).is_err());
        assert_eq!(load(vec![]).unwrap().live_rows(), 2);
    }

    #[test]
    fn truncate_empties() {
        let mut t = keyed_table();
        t.insert(vec![Value::from("a"), Value::Integer(1)]).unwrap();
        t.truncate();
        assert_eq!(t.live_rows(), 0);
        assert_eq!(t.lookup_pk(&[Value::from("a")]), None);
        // Re-insert after truncate works.
        t.insert(vec![Value::from("a"), Value::Integer(2)]).unwrap();
    }

    fn value_gt(col: usize, k: i64) -> VectorKernel {
        use crate::expr::BoundExpr;
        VectorKernel::compile(&BoundExpr::Binary {
            op: ivm_sql::ast::BinaryOp::Gt,
            left: Box::new(BoundExpr::Column {
                index: col,
                ty: Some(DataType::Integer),
                name: "v".into(),
            }),
            right: Box::new(BoundExpr::Literal(Value::Integer(k))),
        })
    }

    /// Materialize `scan_range(slots)` as rows.
    fn scan_rows(
        t: &Table,
        slots: Range<usize>,
        batch_size: usize,
        kernel: Option<Arc<VectorKernel>>,
    ) -> Vec<Vec<Value>> {
        t.scan_range(slots, batch_size, kernel)
            .flat_map(|b| b.unwrap().to_rows())
            .collect()
    }

    #[test]
    fn filtered_scan_skips_tombstones_and_chunks() {
        let mut t = groups_table();
        for v in 0..100i64 {
            t.insert(vec![Value::from("g"), Value::Integer(v)]).unwrap();
        }
        for v in (0..100).step_by(3) {
            t.delete(v as u64).unwrap();
        }
        let got: Vec<i64> = scan_rows(&t, 0..t.total_slots(), 16, Some(Arc::new(value_gt(1, 50))))
            .iter()
            .map(|row| row[1].as_integer().unwrap())
            .collect();
        let expected: Vec<i64> = (51..100).filter(|v| v % 3 != 0).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn filter_row_ids_maps_logical_to_physical() {
        let mut t = groups_table();
        for v in 0..20i64 {
            t.insert(vec![Value::from("g"), Value::Integer(v)]).unwrap();
        }
        t.delete(4).unwrap();
        t.delete(7).unwrap();
        let kernel = value_gt(1, 2);
        let ids = t
            .filter_row_ids_range(0..t.total_slots(), 8, &kernel)
            .unwrap();
        let expected: Vec<u64> = (3..20).filter(|&v| v != 4 && v != 7).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn equality_lookup_uses_pk() {
        let mut t = keyed_table();
        t.insert(vec![Value::from("a"), Value::Integer(1)]).unwrap();
        t.insert(vec![Value::from("b"), Value::Integer(2)]).unwrap();
        assert_eq!(
            t.equality_lookup(&[(0, Value::from("b"))]),
            Some(vec![1]),
            "PK hit"
        );
        assert_eq!(
            t.equality_lookup(&[(0, Value::from("zz"))]),
            Some(vec![]),
            "PK miss proves absence"
        );
        // Equality on a non-indexed column → no index applies.
        assert_eq!(t.equality_lookup(&[(1, Value::Integer(1))]), None);
        assert_eq!(t.equality_lookup(&[]), None);
        // Deleted keys vanish from the index.
        t.delete(1).unwrap();
        assert_eq!(t.equality_lookup(&[(0, Value::from("b"))]), Some(vec![]));
    }

    #[test]
    fn scan_range_concat_matches_full_scan() {
        let mut clean = groups_table();
        for v in 0..137i64 {
            clean
                .insert(vec![Value::from("g"), Value::Integer(v)])
                .unwrap();
        }
        let mut tombstoned = clean.snapshot();
        for v in (0..137).step_by(5) {
            tombstoned.delete(v as u64).unwrap();
        }
        for (t, live) in [(&clean, 137), (&tombstoned, 137 - 28)] {
            let total = t.total_slots();
            for batch_size in [1usize, 7, 1024] {
                let full = scan_rows(t, 0..total, batch_size, None);
                assert_eq!(full.len(), live);
                // The pushed kernel equals filter-after-scan.
                let kernel = Arc::new(value_gt(1, 50));
                let full_filtered = scan_rows(t, 0..total, batch_size, Some(Arc::clone(&kernel)));
                let after: Vec<Vec<Value>> = full
                    .iter()
                    .filter(|row| row[1].as_integer().unwrap() > 50)
                    .cloned()
                    .collect();
                assert_eq!(full_filtered, after, "batch={batch_size}");
                // Consecutive ranges — morsel sizes that divide, split and
                // exceed the batch window — concatenate to the full scan.
                for morsel in [1usize, 5, 7, 16, 64, 200] {
                    let cursor = MorselCursor::new(total, morsel);
                    let mut plain = Vec::new();
                    let mut filtered = Vec::new();
                    while let Some((_, range)) = cursor.claim() {
                        plain.extend(scan_rows(t, range.clone(), batch_size, None));
                        filtered.extend(scan_rows(t, range, batch_size, Some(Arc::clone(&kernel))));
                    }
                    assert_eq!(plain, full, "morsel={morsel} batch={batch_size}");
                    assert_eq!(
                        filtered, full_filtered,
                        "morsel={morsel} batch={batch_size}"
                    );
                }
                // Past the end: clamped, then empty.
                assert_eq!(
                    scan_rows(t, total - 3..total + 50, batch_size, None),
                    scan_rows(t, total - 3..total, batch_size, None)
                );
                assert!(scan_rows(t, total..total + 10, batch_size, None).is_empty());
                assert!(scan_rows(t, total + 5..total + 10, batch_size, None).is_empty());
            }
        }
    }

    #[test]
    fn morsel_cursor_claims_cover_slots_once() {
        let cursor = MorselCursor::new(10, 4);
        assert_eq!(cursor.num_morsels(), 3);
        let mut got = Vec::new();
        while let Some((seq, r)) = cursor.claim() {
            got.push((seq, r));
        }
        assert_eq!(got, vec![(0, 0..4), (1, 4..8), (2, 8..10)]);
        // Empty table: no morsels at all.
        let empty = MorselCursor::new(0, 4);
        assert_eq!(empty.num_morsels(), 0);
        assert!(empty.claim().is_none());
        // A stopped cursor hands out nothing further.
        let stopped = MorselCursor::new(10, 4);
        stopped.claim().unwrap();
        stopped.stop();
        assert!(stopped.claim().is_none());
    }

    #[test]
    fn add_pk_after_bulk_load() {
        let mut t = groups_table();
        for (k, v) in [("a", 1i64), ("b", 2)] {
            t.insert(vec![Value::from(k), Value::Integer(v)]).unwrap();
        }
        t.add_pk_index(vec![0]).unwrap();
        assert!(t.has_pk_index());
        assert_eq!(t.lookup_pk(&[Value::from("b")]), Some(1));
        // Duplicate data rejects the build.
        let mut t2 = groups_table();
        t2.insert(vec![Value::from("a"), Value::Integer(1)])
            .unwrap();
        t2.insert(vec![Value::from("a"), Value::Integer(2)])
            .unwrap();
        assert!(t2.add_pk_index(vec![0]).is_err());
    }
}

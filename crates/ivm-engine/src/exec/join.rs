//! The join operator: a build-probe hash join on the equi-conjuncts of
//! the ON clause, everything else of it a residual. A join without an
//! equi-conjunct — CROSS, comma and non-equi joins — has empty key lists:
//! every build row then hashes to the same seed and sits on one chain in
//! build order, so each probe row's candidates are all build rows, the
//! residual filtering them — a nested loop, run by the same code.
//!
//! The build side is materialized once, then probe batches stream.
//! Output batches reuse the probe batch's columns through a selection
//! vector (zero-copy, possibly with repeats for multi-matches) and gather
//! only the build side. The residual predicate is evaluated *vectorized*:
//! candidate pairs are collected in chunks of at most the executor batch
//! size, each spliced into one `probe ++ build` frame and filtered by a
//! compiled kernel in a single pass, and only passing pairs are kept.
//! Output is chunked at the batch size too, with carry-over state, so
//! high-fan-out probes (skew, CROSS joins, the FULL OUTER tail) never
//! emit oversized batches. The probe side is the preserved side:
//! `LeftOuter` pads unmatched probe rows, `FullOuter` additionally emits
//! unmatched build rows after the probe is exhausted. SQL semantics: NULL
//! keys never match.
//!
//! A build side takes one of two forms ([`BuildSide`]). Hashed, it is a
//! [`BuiltJoin`]: the build input materialized and indexed by a hash
//! table, immutable apart from its FULL OUTER match flags, which are
//! atomics. Indexed — planned when the build input is a bare scan of a
//! table keyed on exactly the join's build keys — it is that table
//! itself: each probe row descends the table's primary-key index, and
//! matched columns are borrowed from storage, so there is nothing to
//! build, partition, spill or share. Either way a serial plan probes it
//! from one [`HashJoinOp`], the morsel executor from one `HashJoinOp` per
//! morsel on every worker ([`HashJoinOp::shared`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::EngineError;
use crate::exec::batch::{ColumnData, RowBatch};
use crate::exec::hash::{chain_prepend, hash_rows_keys, FlatTable, KeyHashes};
use crate::exec::parallel::for_each_morsel;
use crate::exec::spill::{
    for_each_fitting_group, MemoryBudget, PartitionGroups, PartitionedSpiller, SpillHash,
    SpillMerge, SpillPartition,
};
use crate::exec::typed::{EncodedChunk, KeyArena};
use crate::exec::{drain, Input, Operator, Row};
use crate::expr::{BoundExpr, VectorKernel};
use crate::index::key::encode_value;
use crate::planner::physical::PhysJoinKind;
use crate::storage::Table;
use crate::value::Value;

/// Build sides smaller than this get one flat table built on the calling
/// thread: below it the radix pass and the per-partition tables cost more
/// than the builder threads save.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Per-build-row "some probe row matched me" flags. They exist only to
/// compute the FULL OUTER tail, so every other join kind gets none and
/// skips the per-match store. Stores and loads are `Relaxed`: a flag
/// publishes no other data, and the tail reads them only after every
/// prober has finished (same thread, or joined by the morsel scheduler's
/// scope).
fn matched_flags(rows: usize, join: PhysJoinKind) -> Vec<AtomicBool> {
    let tracked = if join == PhysJoinKind::FullOuter {
        rows
    } else {
        0
    };
    (0..tracked).map(|_| AtomicBool::new(false)).collect()
}

/// Join output for one probe batch, emitted in `batch_size` chunks.
struct PendingOutput<'a> {
    batch: RowBatch<'a>,
    probe_sel: Vec<u32>,
    build_idx: Vec<u32>,
    /// Whether `build_idx` contains any `u32::MAX` NULL-pad slot (outer
    /// joins only): padded chunks gather the build side into owned
    /// columns, while unpadded ones share its buffers zero-copy.
    padded: bool,
    offset: usize,
}

impl<'a> PendingOutput<'a> {
    fn new(batch: RowBatch<'a>, probe_sel: Vec<u32>, build_idx: Vec<u32>) -> PendingOutput<'a> {
        let padded = build_idx.contains(&u32::MAX);
        PendingOutput {
            batch,
            probe_sel,
            build_idx,
            padded,
            offset: 0,
        }
    }

    /// Emit the next chunk of at most `batch_size` output rows, or `None`
    /// when exhausted.
    fn next_chunk(&mut self, side: &BuildSide<'a>, batch_size: usize) -> Option<RowBatch<'a>> {
        if self.offset >= self.probe_sel.len() {
            return None;
        }
        let end = (self.offset + batch_size.max(1)).min(self.probe_sel.len());
        let probe_sel = self.probe_sel[self.offset..end].to_vec();
        let build_idx = &self.build_idx[self.offset..end];
        self.offset = end;
        let rows = probe_sel.len();
        let mut columns = self.batch.select(probe_sel).into_columns();
        if self.padded {
            columns.extend(side.gather(build_idx));
        } else {
            columns.extend(side.select(build_idx.to_vec()));
        }
        Some(RowBatch::new(columns, rows))
    }
}

/// The FULL OUTER tail: the build rows no prober matched, NULL-padded on
/// the probe side, emitted in `batch_size` chunks.
struct OuterTail {
    ids: Vec<u32>,
    offset: usize,
}

impl OuterTail {
    /// Snapshot the unmatched build rows — once every prober is done.
    fn new(side: &BuildSide<'_>) -> OuterTail {
        let ids = side
            .matched()
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.load(Ordering::Relaxed))
            .map(|(i, _)| i as u32)
            .collect();
        OuterTail { ids, offset: 0 }
    }

    fn next_chunk<'a>(
        &mut self,
        side: &BuildSide<'a>,
        probe_width: usize,
        batch_size: usize,
    ) -> Option<RowBatch<'a>> {
        if self.offset >= self.ids.len() {
            return None;
        }
        let end = (self.offset + batch_size).min(self.ids.len());
        let ids = &self.ids[self.offset..end];
        self.offset = end;
        let mut columns: Vec<ColumnData<'a>> = (0..probe_width)
            .map(|_| ColumnData::owned(vec![Value::Null; ids.len()]))
            .collect();
        columns.extend(side.gather(ids));
        Some(RowBatch::new(columns, ids.len()))
    }
}

/// Build-side key encode chunk size: bounds the scratch [`EncodedChunk`]
/// while the whole build side streams through the typed encoder.
const BUILD_ENCODE_CHUNK: usize = 4096;

/// Radix partitions of a build side built by `workers` threads.
fn partition_count(workers: usize) -> usize {
    (workers * 4).next_power_of_two().min(64)
}

/// Partition index of a hash under `part_shift` (high bits).
#[inline]
fn partition_of(hash: u64, part_shift: u32) -> usize {
    if part_shift >= 64 {
        0
    } else {
        (hash >> part_shift) as usize
    }
}

/// Hash index over the build side: [`FlatTable`]s keyed by precomputed
/// key hashes whose payload is the *head* build-row index of a chain
/// threaded through `next` (rows with equal keys, in build-row order).
/// The hash column is computed once and reused everywhere: the **high
/// bits** pick the radix partition, the **low bits** index the
/// partition's table. Build keys are packed into a [`KeyArena`] (arena row
/// `i` == build row `i`, null-key rows included) so chain and probe
/// compares are branch-free word compares.
pub(crate) struct JoinTable {
    /// One flat table per radix partition (len 1 = unpartitioned).
    parts: Vec<FlatTable>,
    /// Right-shift mapping a key hash to its partition (64 when
    /// unpartitioned: everything lands in partition 0).
    part_shift: u32,
    /// Per build row: the next row with an equal key, `u32::MAX` at the
    /// chain end.
    next: Vec<u32>,
    /// Typed columnar copy of the build keys.
    keys: KeyArena,
}

/// One built radix partition: its flat table plus the `(row, next)` chain
/// updates to apply to the shared chain array.
type BuiltPartition = (FlatTable, Vec<(u32, u32)>);

impl JoinTable {
    /// Index `rows` on `keys`. Rows with a NULL key never enter a table
    /// (SQL: NULL keys never match). Chains are built by *prepending*
    /// over a reverse scan, so candidate iteration yields build rows in
    /// increasing order — the output order contract.
    ///
    /// With more than one worker and at least
    /// [`PARALLEL_BUILD_THRESHOLD`] rows the build is radix-partitioned
    /// across `workers` morsel workers ([`for_each_morsel`]): contiguous
    /// row chunks — one morsel each — hash and bucketize in parallel
    /// (per-partition row lists concatenate in chunk order, keeping
    /// global row order), then the partitions' tables are built in
    /// parallel, a run of partitions per morsel. Anything smaller, or one
    /// worker, builds a single table on the calling thread.
    pub(crate) fn build(
        rows: &[Row],
        keys: &[usize],
        workers: usize,
    ) -> Result<JoinTable, EngineError> {
        let n = rows.len();
        let partitioned = workers > 1 && n >= PARALLEL_BUILD_THRESHOLD;
        let nparts = if partitioned {
            partition_count(workers)
        } else {
            1
        };
        let part_shift = 64 - nparts.trailing_zeros();
        // A chunk's hashes, and its non-NULL-key row ids per partition.
        let bucketize = |base: usize, slice: &[Row]| -> (KeyHashes, Vec<Vec<u32>>) {
            let hashes = hash_rows_keys(slice, keys);
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            for (off, h) in hashes.hashes.iter().enumerate() {
                if !hashes.is_null(off) {
                    lists[partition_of(*h, part_shift)].push((base + off) as u32);
                }
            }
            (hashes, lists)
        };

        // Phase 1: the hash column, computed once.
        let (hashes, part_rows) = if partitioned {
            let chunk = n.div_ceil(workers);
            let (_, chunk_out) = for_each_morsel(
                n,
                chunk,
                workers,
                || (),
                |_, _, range| Ok(bucketize(range.start, &rows[range])),
            )?;
            let mut hashes = KeyHashes::with_len(n);
            let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            for (ci, (chunk_hashes, lists)) in chunk_out.into_iter().enumerate() {
                hashes.splice_from(ci * chunk, chunk_hashes);
                for (p, list) in lists.into_iter().enumerate() {
                    part_rows[p].extend(list);
                }
            }
            (hashes, part_rows)
        } else {
            bucketize(0, rows)
        };

        // Typed build-key arena: encoded once over the full build side,
        // shared read-only by every partition builder and prober.
        let arena = encode_build_keys(rows, keys);

        // Phase 2: per-partition flat tables, chains prepended over a
        // reverse scan of each partition's (globally ordered) row list.
        // One build loop serves both arms; only the chain sink differs
        // (direct write vs. recorded updates applied by the coordinator).
        let mut next = vec![u32::MAX; n];
        let build_part = |list: &[u32], set_next: &mut dyn FnMut(u32, u32)| -> FlatTable {
            let mut table = FlatTable::with_capacity(list.len());
            for &i in list.iter().rev() {
                chain_prepend(
                    &mut table,
                    hashes.hashes[i as usize],
                    i,
                    |p| arena.eq_rows(p as usize, i as usize),
                    |head| set_next(i, head),
                );
            }
            table
        };
        let parts: Vec<FlatTable> = if partitioned {
            // Partitions hold disjoint row sets, so their chain writes
            // are disjoint; each builder returns its (row, next) updates
            // and the coordinator applies them. Partitions are chunked
            // across at most `workers` threads — the worker count is a
            // resource bound, not a partition count.
            let per_worker = nparts.div_ceil(workers);
            let (_, built) = for_each_morsel(
                nparts,
                per_worker,
                workers,
                || (),
                |_, _, range| {
                    Ok(part_rows[range]
                        .iter()
                        .map(|list| {
                            let mut updates: Vec<(u32, u32)> = Vec::new();
                            let table = build_part(list, &mut |i, head| updates.push((i, head)));
                            (table, updates)
                        })
                        .collect::<Vec<BuiltPartition>>())
                },
            )?;
            built
                .into_iter()
                .flatten()
                .map(|(table, updates)| {
                    for (i, nxt) in updates {
                        next[i as usize] = nxt;
                    }
                    table
                })
                .collect()
        } else {
            vec![build_part(&part_rows[0], &mut |i, head| {
                next[i as usize] = head
            })]
        };
        Ok(JoinTable {
            parts,
            part_shift,
            next,
            keys: arena,
        })
    }
}

/// Pack every build key into a fresh [`KeyArena`] (arena row == build
/// row). NULL-key rows are encoded too — they never enter the hash table,
/// but keeping the arena index aligned with the row index keeps chain
/// compares O(1).
fn encode_build_keys(rows: &[Row], keys: &[usize]) -> KeyArena {
    let mut arena = KeyArena::with_hint(rows.len());
    // An empty build side is still probed: bind the width regardless.
    arena.bind_width(keys.len());
    let mut chunk = EncodedChunk::new();
    for slice in rows.chunks(BUILD_ENCODE_CHUNK) {
        arena.encode_chunk(&mut chunk, keys.len(), slice.len(), |r, c| {
            &slice[r][keys[c]]
        });
        for r in 0..slice.len() {
            arena.push_from_chunk(&chunk, r);
        }
    }
    arena
}

/// What a hash join is, fixed when its plan node is compiled: immutable,
/// shared by every operator probing for that node.
pub(crate) struct JoinSpec {
    probe_width: usize,
    build_width: usize,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    residual: Option<VectorKernel>,
    pub(crate) join: PhysJoinKind,
}

impl JoinSpec {
    /// `residual` is compiled to a kernel here.
    pub(crate) fn new(
        probe_width: usize,
        build_width: usize,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        residual: Option<&BoundExpr>,
        join: PhysJoinKind,
    ) -> JoinSpec {
        debug_assert_eq!(probe_keys.len(), build_keys.len());
        JoinSpec {
            probe_width,
            build_width,
            probe_keys,
            build_keys,
            residual: residual.map(VectorKernel::compile),
            join,
        }
    }
}

/// A build side ready to probe: its rows as columns behind `Arc`s, the
/// hash index over them and (FULL OUTER only) their match flags. Output
/// batches and residual frames take the build side by *selection*
/// against the shared columns — no `Value` clone per emitted pair.
pub(crate) struct BuiltJoin {
    cols: Vec<Arc<Vec<Value>>>,
    table: JoinTable,
    /// See [`matched_flags`].
    matched: Vec<AtomicBool>,
}

impl BuiltJoin {
    /// Materialize and index `rows` as the build side of `spec`, across
    /// up to `workers` threads (see [`JoinTable::build`]).
    pub(crate) fn new(
        rows: Vec<Row>,
        spec: &JoinSpec,
        workers: usize,
    ) -> Result<BuiltJoin, EngineError> {
        // Sized from the exact build-row count: no rehash during build.
        let table = JoinTable::build(&rows, &spec.build_keys, workers)?;
        let mut cols: Vec<Vec<Value>> = (0..spec.build_width)
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        let matched = matched_flags(rows.len(), spec.join);
        for row in rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Ok(BuiltJoin {
            cols: cols.into_iter().map(Arc::new).collect(),
            table,
            matched,
        })
    }

    /// Build row `i`'s values.
    fn row(&self, i: usize) -> impl Iterator<Item = Value> + '_ {
        self.cols.iter().map(move |c| c[i].clone())
    }
}

/// A join's build side as its probers see it; cloning it shares it.
#[derive(Clone)]
pub(crate) enum BuildSide<'a> {
    /// The build input materialized and hashed.
    Hashed(Arc<BuiltJoin>),
    /// The build table itself, read through its primary-key index, whose
    /// columns are exactly the join's build keys in key order. Row
    /// indexes are the table's slot ids.
    Indexed(&'a Table),
}

impl<'a> BuildSide<'a> {
    /// The build columns at rows `idx`, gathered into owned columns;
    /// `u32::MAX` marks a NULL-padded (unmatched probe) slot.
    fn gather(&self, idx: &[u32]) -> Vec<ColumnData<'a>> {
        let gather = |c: &[Value]| {
            let at = |i: u32| match i {
                u32::MAX => Value::Null,
                i => c[i as usize].clone(),
            };
            ColumnData::owned(idx.iter().map(|&i| at(i)).collect())
        };
        match self {
            BuildSide::Hashed(built) => built.cols.iter().map(|c| gather(c)).collect(),
            BuildSide::Indexed(table) => (0..table.schema.len())
                .map(|c| gather(table.column(c)))
                .collect(),
        }
    }

    /// The build columns at rows `idx`, zero-copy: a selection over the
    /// hashed side's shared columnar copy, or over the table's storage.
    fn select(&self, idx: Vec<u32>) -> Vec<ColumnData<'a>> {
        let sel = Arc::new(idx);
        match self {
            BuildSide::Hashed(built) => built
                .cols
                .iter()
                .map(|c| ColumnData::shared_with_sel(Arc::clone(c), Arc::clone(&sel)))
                .collect(),
            BuildSide::Indexed(table) => (0..table.schema.len())
                .map(|c| ColumnData::borrowed_with_sel(table.column(c), Arc::clone(&sel)))
                .collect(),
        }
    }

    /// The FULL OUTER match flags (none for an indexed side, which is
    /// never planned under a FULL OUTER join).
    fn matched(&self) -> &[AtomicBool] {
        match self {
            BuildSide::Hashed(built) => &built.matched,
            BuildSide::Indexed(_) => &[],
        }
    }

    /// Hand `emit` each `(probe row, build row)` candidate pair of
    /// `batch`, in probe-row order and, per probe row, in build-row
    /// order. NULL probe keys match nothing.
    fn candidates(
        &self,
        spec: &JoinSpec,
        batch: &RowBatch<'_>,
        mut emit: impl FnMut(u32, u32) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let rows = batch.num_rows();
        match self {
            BuildSide::Hashed(built) => {
                // One fused column-at-a-time pass both hashes the batch's
                // probe keys and encodes them against the build arena
                // (lookup-only — a probe string absent from the build heap
                // can match nothing, so it is never interned), so each key
                // value is enum-dispatched exactly once and each candidate
                // compare is a word compare.
                let table = &built.table;
                let arena = &table.keys;
                let mut chunk = EncodedChunk::new();
                let hashes = arena.encode_probe_batch(&mut chunk, batch, &spec.probe_keys);
                for row in 0..rows {
                    if hashes.is_null(row) {
                        continue;
                    }
                    // The chain head for this probe key, then every build
                    // row on the chain (build-row order).
                    let hash = hashes.hashes[row];
                    let part = &table.parts[partition_of(hash, table.part_shift)];
                    let head = part.find(hash, |p| arena.eq_chunk(p as usize, &chunk, row));
                    let mut cur = head.unwrap_or(u32::MAX);
                    while cur != u32::MAX {
                        emit(row as u32, cur)?;
                        cur = table.next[cur as usize];
                    }
                }
            }
            // A unique key matches at most one live row. The index encodes
            // numbers by value, so a probe key equals an index key exactly
            // when the hashed build would match them.
            BuildSide::Indexed(table) => {
                let pk = table.pk_index().expect("resolved against a keyed table");
                let mut key = Vec::new();
                'rows: for row in 0..rows {
                    key.clear();
                    for &c in &spec.probe_keys {
                        let value = batch.value(c, row);
                        if value.is_null() {
                            continue 'rows;
                        }
                        encode_value(value, &mut key);
                    }
                    if let Some(id) = pk.get_encoded(&key) {
                        emit(row as u32, id as u32)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Candidate or output pairs: probe-batch rows and the build rows they
/// pair with, in step.
type Pairs = (Vec<u32>, Vec<u32>);

/// One probe batch joined against a build side: candidate pairs via its
/// hash chains (build-row order) or its index, the residual kernel over
/// chunks of at most `chunk_pairs` of them, output pairs in probe-row
/// order with outer padding. The one probe, for the streaming in-memory
/// path (one prober or one per morsel worker) and the per-partition
/// spill path — all produce identical pair sequences for identical
/// inputs.
fn join_probe_batch<'a>(
    spec: &JoinSpec,
    side: &BuildSide<'a>,
    batch: &RowBatch<'a>,
    chunk_pairs: usize,
) -> Result<Pairs, EngineError> {
    let rows = batch.num_rows();
    let residual = spec.residual.as_ref();
    // Candidates not yet through the residual, and the pairs that passed.
    let mut cand: Pairs = (Vec::new(), Vec::new());
    let mut pass: Pairs = (Vec::new(), Vec::new());
    side.candidates(spec, batch, |row, bi| {
        cand.0.push(row);
        cand.1.push(bi);
        match residual.filter(|_| cand.0.len() == chunk_pairs) {
            Some(kernel) => filter_pairs(kernel, side, batch, &mut cand, &mut pass),
            None => Ok(()),
        }
    })?;
    // Without a residual every candidate passes.
    let (pass_rows, pass_bis) = match residual {
        None => cand,
        Some(kernel) => {
            filter_pairs(kernel, side, batch, &mut cand, &mut pass)?;
            pass
        }
    };
    // An inner join's passing pairs are its output — probe-row order with
    // chains in build-row order — and it tracks no match flags.
    if spec.join == PhysJoinKind::Inner {
        return Ok((pass_rows, pass_bis));
    }
    let matched = side.matched();
    for &bi in &pass_bis {
        if let Some(flag) = matched.get(bi as usize) {
            flag.store(true, Ordering::Relaxed);
        }
    }
    // LEFT / FULL OUTER: a NULL pad in the place of each probe row no
    // pair passed for.
    let mut out: Pairs = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    let mut cur = 0usize;
    for row in 0..rows as u32 {
        let start = cur;
        while cur < pass_rows.len() && pass_rows[cur] == row {
            cur += 1;
        }
        if cur == start {
            out.0.push(row);
            out.1.push(u32::MAX);
        } else {
            out.0.extend_from_slice(&pass_rows[start..cur]);
            out.1.extend_from_slice(&pass_bis[start..cur]);
        }
    }
    Ok(out)
}

/// Run the residual `kernel` over the candidate pairs `cand` — spliced
/// into one `probe ++ build` frame, filtered in a single pass — and move
/// the passing ones, in order, onto `pass`.
fn filter_pairs<'a>(
    kernel: &VectorKernel,
    side: &BuildSide<'a>,
    batch: &RowBatch<'a>,
    cand: &mut Pairs,
    pass: &mut Pairs,
) -> Result<(), EngineError> {
    if !cand.0.is_empty() {
        let mut columns = batch.select(cand.0.clone()).into_columns();
        columns.extend(side.select(cand.1.clone()));
        for i in kernel.select(&RowBatch::new(columns, cand.0.len()))? {
            pass.0.push(cand.0[i as usize]);
            pass.1.push(cand.1[i as usize]);
        }
    }
    cand.0.clear();
    cand.1.clear();
    Ok(())
}

/// The one join operator: build-probe on plan-time-extracted equi-keys,
/// of which there may be none.
///
/// With a bounded [`MemoryBudget`] the build side arrives as radix
/// partitions ([`Input::partitions`]) — unless the join is keyless: with
/// no key to partition on, its build side is held in memory, unbudgeted.
/// If every partition stayed resident *and* the probe input streams, the
/// build reassembles and the join runs in memory. Otherwise it runs Grace-style: the probe side is
/// partitioned on the same hash bits and partition pairs join one at a
/// time (recursively re-partitioned on a rotated bit range when a build
/// partition still does not fit). A probe input that does not stream —
/// the morsel scheduler's child, which would stage its whole output as
/// rows — therefore always takes the Grace path. Every output row
/// carries its serial emission coordinates `(probe row, match ordinal)`
/// — the FULL OUTER tail sorts after all probe output by build order —
/// so the merged result is row-identical, order included, to the
/// in-memory join. An indexed build side ([`BuildSide::Indexed`]) has
/// none of this: it arrives resolved, and only the probe streams.
pub struct HashJoinOp<'a> {
    probe: Input<'a>,
    /// Taken when the build side is consumed; `None` from the start when
    /// it arrives already built.
    build: Option<Input<'a>>,
    spec: Arc<JoinSpec>,
    batch_size: usize,
    budget: MemoryBudget,
    state: Option<BuildSide<'a>>,
    /// Build partition groups (one per producer) awaiting the Grace
    /// probe phase.
    grace_build: Option<PartitionGroups>,
    /// Streaming Grace output merge, emitted in serial order.
    grace_output: Option<SpillMerge>,
    pending: Option<PendingOutput<'a>>,
    probe_done: bool,
    /// Whether this operator emits the FULL OUTER tail once its probe is
    /// exhausted (false for all but one of the probers sharing a build).
    emits_tail: bool,
    tail: Option<OuterTail>,
}

impl<'a> HashJoinOp<'a> {
    /// Create the operator; the hash table is built on first pull, on
    /// the pulling thread.
    pub(crate) fn new(
        probe: impl Into<Input<'a>>,
        build: Option<Input<'a>>,
        spec: Arc<JoinSpec>,
        batch_size: usize,
    ) -> HashJoinOp<'a> {
        HashJoinOp {
            probe: probe.into(),
            build,
            emits_tail: spec.join == PhysJoinKind::FullOuter,
            spec,
            batch_size: batch_size.max(1),
            budget: MemoryBudget::unbounded(),
            state: None,
            grace_build: None,
            grace_output: None,
            pending: None,
            probe_done: false,
            tail: None,
        }
    }

    /// Probe a build side built elsewhere and shared with other probers
    /// — how the morsel executor runs one join node over many slot
    /// ranges — or one that needs no build: an indexed side. Exactly one
    /// of the probers — started after every other finished — passes
    /// `emits_tail` and so emits the FULL OUTER tail.
    pub(crate) fn shared(
        probe: impl Into<Input<'a>>,
        spec: Arc<JoinSpec>,
        side: BuildSide<'a>,
        batch_size: usize,
        emits_tail: bool,
    ) -> HashJoinOp<'a> {
        let mut op = HashJoinOp::new(probe, None, spec, batch_size);
        op.state = Some(side);
        op.emits_tail &= emits_tail;
        op
    }

    /// Attach a memory budget: a build side that overflows it spills to
    /// disk and the join runs Grace-style, partition at a time.
    pub fn with_budget(mut self, budget: MemoryBudget) -> HashJoinOp<'a> {
        self.budget = budget;
        self
    }

    fn ensure_built(&mut self) -> Result<(), EngineError> {
        if self.state.is_some() || self.grace_build.is_some() || self.grace_output.is_some() {
            return Ok(());
        }
        let mut build = self.build.take().expect("the build input is consumed once");
        // A keyless join has no key to partition on: its build side stays
        // in memory under any budget.
        let rows = if !self.budget.is_bounded() || self.spec.build_keys.is_empty() {
            drain(build.into_operator())?
        } else {
            // Bounded budget: the build side arrives as radix partitions,
            // each row tagged with its build sequence so partition chains
            // (and the FULL OUTER tail) keep build order.
            let hash = SpillHash::Keys(&self.spec.build_keys);
            let groups = build.partitions(&self.budget, &hash, 0)?;
            let fit = groups
                .iter()
                .flatten()
                .all(|p| matches!(p, SpillPartition::Resident { .. }));
            if !(fit && self.probe.streams()) {
                self.grace_build = Some(groups);
                return Ok(());
            }
            // Everything fit and the probe streams: merge the partitions
            // back into build order and run the normal streaming join —
            // bounded-budget queries that fit behave exactly like
            // unbounded ones.
            let parts = groups.into_iter().flatten().collect();
            let tuples = SpillMerge::by_seq(parts, &self.budget)?.collect_all()?;
            tuples.into_iter().map(|(_, _, r)| r).collect()
        };
        let built = BuiltJoin::new(rows, &self.spec, 1)?;
        self.state = Some(BuildSide::Hashed(Arc::new(built)));
        Ok(())
    }

    /// The Grace phase: partition the probe side on the build's bit
    /// range, join partition pairs (recursing when a build partition
    /// still does not fit), and emit through a k-way merge over
    /// per-partition output runs — the serial emission order is restored
    /// without materializing the result.
    fn run_grace(&mut self) -> Result<SpillMerge, EngineError> {
        let build_groups = self.grace_build.take().expect("grace build partitions");
        let hash = SpillHash::Keys(&self.spec.probe_keys);
        let probe_groups = self.probe.partitions(&self.budget, &hash, 0)?;

        // (probe seq, match ordinal) emission keys; the FULL OUTER tail
        // uses probe seq u64::MAX so it merges after every probe row,
        // ordered by global build sequence — exactly the serial tail
        // position. Each partition pair appends one key-ascending run.
        let budget = self.budget.clone();
        let mut runs = PartitionedSpiller::runs(budget.clone());
        let spec = &*self.spec;
        let chunk_rows = self.batch_size;
        for_each_fitting_group(
            build_groups,
            probe_groups,
            &budget,
            0,
            &mut |build_tuples, probe_merge| {
                // Build tuples arrive sequence-ascending, so chains built
                // by `JoinTable::build` iterate in global build order.
                let build_seqs: Vec<u64> = build_tuples.iter().map(|(_, s, _)| *s).collect();
                let build_rows: Vec<Row> = build_tuples.into_iter().map(|(_, _, r)| r).collect();
                let built = Arc::new(BuiltJoin::new(build_rows, spec, 1)?);
                let side = BuildSide::Hashed(Arc::clone(&built));
                runs.begin_run();
                probe_merge.for_each_chunk(chunk_rows, |chunk| {
                    let seqs: Vec<u64> = chunk.iter().map(|(_, s, _)| *s).collect();
                    let rows: Vec<Row> = chunk.into_iter().map(|(_, _, r)| r).collect();
                    let batch = RowBatch::from_rows(spec.probe_width, rows);
                    let (probe_sel, build_idx) = join_probe_batch(spec, &side, &batch, chunk_rows)?;
                    let mut ordinal = 0u64;
                    let mut prev_row = u32::MAX;
                    for (&row, &bi) in probe_sel.iter().zip(&build_idx) {
                        if row != prev_row {
                            ordinal = 0;
                            prev_row = row;
                        }
                        let mut out = batch.materialize_row(row as usize);
                        if bi == u32::MAX {
                            out.extend(std::iter::repeat_n(Value::Null, spec.build_width));
                        } else {
                            out.extend(built.row(bi as usize));
                        }
                        runs.push_run(seqs[row as usize], ordinal, out)?;
                        ordinal += 1;
                    }
                    Ok(())
                })?;
                for (bi, m) in built.matched.iter().enumerate() {
                    if !m.load(Ordering::Relaxed) {
                        let mut out: Row = vec![Value::Null; spec.probe_width];
                        out.extend(built.row(bi));
                        runs.push_run(u64::MAX, build_seqs[bi], out)?;
                    }
                }
                Ok(())
            },
        )?;
        SpillMerge::by_key(runs.finish()?, &budget)
    }
}

impl<'a> Operator<'a> for HashJoinOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        self.ensure_built()?;
        if self.grace_build.is_some() || self.grace_output.is_some() {
            if self.grace_output.is_none() {
                let merged = self.run_grace()?;
                self.grace_output = Some(merged);
            }
            let merged = self.grace_output.as_mut().expect("just set");
            return merged.next_batch(self.batch_size);
        }
        let built = self.state.as_ref().expect("built above");
        let spec = &*self.spec;
        loop {
            if let Some(pending) = self.pending.as_mut() {
                match pending.next_chunk(built, self.batch_size) {
                    Some(out) => return Ok(Some(out)),
                    None => self.pending = None,
                }
            }
            if self.probe_done {
                break;
            }
            let Some(batch) = self.probe.next_batch()? else {
                self.probe_done = true;
                break;
            };
            let (probe_sel, build_idx) = join_probe_batch(spec, built, &batch, self.batch_size)?;
            if !probe_sel.is_empty() {
                self.pending = Some(PendingOutput::new(batch, probe_sel, build_idx));
            }
        }
        if !self.emits_tail {
            return Ok(None);
        }
        let tail = self.tail.get_or_insert_with(|| OuterTail::new(built));
        Ok(tail.next_chunk(built, spec.probe_width, self.batch_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{replay, BoxedOperator};
    use crate::types::DataType;
    use ivm_sql::ast::BinaryOp;

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }

    fn col(idx: usize) -> BoundExpr {
        BoundExpr::Column {
            index: idx,
            ty: Some(DataType::Integer),
            name: format!("c{idx}"),
        }
    }

    fn gt(l: BoundExpr, r: i64) -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(l),
            right: Box::new(BoundExpr::Literal(i(r))),
        }
    }

    /// `c0 < c1`: a one-column probe row less than its build row.
    fn lt() -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(col(0)),
            right: Box::new(col(1)),
        }
    }

    /// A serial (one-worker) hash join over explicit widths and keys.
    #[allow(clippy::too_many_arguments)]
    fn hash_join<'a>(
        probe: BoxedOperator<'a>,
        build: BoxedOperator<'a>,
        pw: usize,
        bw: usize,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        residual: Option<BoundExpr>,
        join: PhysJoinKind,
        batch_size: usize,
    ) -> HashJoinOp<'a> {
        let spec = JoinSpec::new(pw, bw, probe_keys, build_keys, residual.as_ref(), join);
        HashJoinOp::new(probe, Some(build.into()), Arc::new(spec), batch_size)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_hash(
        probe: Vec<Row>,
        build: Vec<Row>,
        pw: usize,
        bw: usize,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        residual: Option<BoundExpr>,
        join: PhysJoinKind,
        batch_size: usize,
    ) -> Vec<Row> {
        let op = hash_join(
            replay(pw, probe, batch_size),
            replay(bw, build, batch_size),
            pw,
            bw,
            probe_keys,
            build_keys,
            residual,
            join,
            batch_size,
        );
        drain(Box::new(op)).unwrap()
    }

    /// A keyless join: every build row is a candidate, `on` the residual.
    fn run_keyless(
        probe: Vec<Row>,
        build: Vec<Row>,
        pw: usize,
        bw: usize,
        on: Option<BoundExpr>,
        join: PhysJoinKind,
    ) -> Vec<Row> {
        run_hash(probe, build, pw, bw, vec![], vec![], on, join, 2)
    }

    #[test]
    fn join_output_batches_are_bounded() {
        // CROSS 10 × 10 at batch_size 4: 100 output rows, every batch ≤ 4.
        let probe: Vec<Row> = (0..10).map(|v| vec![i(v)]).collect();
        let build: Vec<Row> = (0..10).map(|v| vec![i(v * 100)]).collect();
        let mut op = hash_join(
            replay(1, probe, 4),
            replay(1, build, 4),
            1,
            1,
            vec![],
            vec![],
            None,
            PhysJoinKind::Inner,
            4,
        );
        let mut total = 0;
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.num_rows() <= 4, "oversized batch: {}", b.num_rows());
            total += b.num_rows();
        }
        assert_eq!(total, 100);

        // Skewed hash join: one probe row matches 50 build rows.
        let probe: Vec<Row> = vec![vec![i(7)]];
        let build: Vec<Row> = (0..50).map(|v| vec![i(7), i(v)]).collect();
        let mut op = hash_join(
            replay(1, probe, 8),
            replay(2, build, 8),
            1,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            8,
        );
        let mut total = 0;
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.num_rows() <= 8, "oversized batch: {}", b.num_rows());
            total += b.num_rows();
        }
        assert_eq!(total, 50);
    }

    #[test]
    fn full_outer_tail_is_chunked() {
        // Empty probe, 10 unmatched build rows, batch_size 3 → tail chunks.
        let build: Vec<Row> = (0..10).map(|v| vec![i(v)]).collect();
        let mut op = hash_join(
            replay(1, vec![], 3),
            replay(1, build, 3),
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::FullOuter,
            3,
        );
        let mut sizes = Vec::new();
        let mut total = 0;
        while let Some(b) = op.next_batch().unwrap() {
            sizes.push(b.num_rows());
            total += b.num_rows();
        }
        assert_eq!(total, 10);
        assert!(sizes.iter().all(|&s| s <= 3), "{sizes:?}");
    }

    #[test]
    fn inner_hash_join_matches_pairs() {
        let probe = vec![vec![i(1), i(10)], vec![i(2), i(20)], vec![i(3), i(30)]];
        let build = vec![vec![i(2), i(200)], vec![i(3), i(300)], vec![i(3), i(301)]];
        let mut out = run_hash(
            probe,
            build,
            2,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            2,
        );
        out.sort();
        assert_eq!(
            out,
            vec![
                vec![i(2), i(20), i(2), i(200)],
                vec![i(3), i(30), i(3), i(300)],
                vec![i(3), i(30), i(3), i(301)],
            ]
        );
    }

    #[test]
    fn left_outer_pads_unmatched_probe_rows() {
        let probe = vec![vec![i(1)], vec![i(2)]];
        let build = vec![vec![i(2), i(200)]];
        let mut out = run_hash(
            probe,
            build,
            1,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::LeftOuter,
            8,
        );
        out.sort();
        assert_eq!(
            out,
            vec![
                vec![i(1), Value::Null, Value::Null],
                vec![i(2), i(2), i(200)],
            ]
        );
    }

    #[test]
    fn full_outer_emits_both_unmatched_sides() {
        let probe = vec![vec![i(1)], vec![i(2)]];
        let build = vec![vec![i(2)], vec![i(3)]];
        let mut out = run_hash(
            probe,
            build,
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::FullOuter,
            1,
        );
        out.sort();
        assert_eq!(
            out,
            vec![
                vec![Value::Null, i(3)],
                vec![i(1), Value::Null],
                vec![i(2), i(2)],
            ]
        );
    }

    #[test]
    fn null_keys_never_match_but_outer_rows_survive() {
        let probe = vec![vec![Value::Null], vec![i(1)]];
        let build = vec![vec![Value::Null], vec![i(1)]];
        let inner = run_hash(
            probe.clone(),
            build.clone(),
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            4,
        );
        assert_eq!(inner, vec![vec![i(1), i(1)]]);
        let mut full = run_hash(
            probe,
            build,
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::FullOuter,
            4,
        );
        full.sort();
        assert_eq!(
            full,
            vec![
                vec![Value::Null, Value::Null], // unmatched NULL-key build row
                vec![Value::Null, Value::Null], // unmatched NULL-key probe row
                vec![i(1), i(1)],
            ]
        );
    }

    #[test]
    fn residual_filters_candidate_pairs() {
        // probe(k, v) ⋈ build(k) ON k = k AND v > 15
        let probe = vec![vec![i(1), i(10)], vec![i(1), i(20)]];
        let build = vec![vec![i(1)]];
        let out = run_hash(
            probe,
            build,
            2,
            1,
            vec![0],
            vec![0],
            Some(gt(col(1), 15)),
            PhysJoinKind::Inner,
            4,
        );
        assert_eq!(out, vec![vec![i(1), i(20), i(1)]]);
    }

    #[test]
    fn empty_sides_behave() {
        let rows = vec![vec![i(1)], vec![i(2)]];
        // Empty build: inner yields nothing, left outer pads everything.
        assert!(run_hash(
            rows.clone(),
            vec![],
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            4,
        )
        .is_empty());
        let padded = run_hash(
            rows.clone(),
            vec![],
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::LeftOuter,
            4,
        );
        assert_eq!(
            padded,
            vec![vec![i(1), Value::Null], vec![i(2), Value::Null]]
        );
        // Empty probe: full outer still surfaces the build side.
        let mut tail = run_hash(
            vec![],
            rows,
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::FullOuter,
            4,
        );
        tail.sort();
        assert_eq!(tail, vec![vec![Value::Null, i(1)], vec![Value::Null, i(2)]]);
    }

    #[test]
    fn multi_batch_probe_streams() {
        // 10 probe rows in batches of 2 against a 3-row build side.
        let probe: Vec<Row> = (0..10).map(|v| vec![i(v % 3)]).collect();
        let build: Vec<Row> = (0..3).map(|v| vec![i(v), i(v * 100)]).collect();
        let out = run_hash(
            probe,
            build,
            1,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            2,
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r[0] == r[1]));
    }

    /// Run the same join with an unbounded budget and a tiny one; the
    /// spilled result must be identical, rows AND order.
    #[allow(clippy::too_many_arguments)]
    fn assert_spill_identical(
        probe: Vec<Row>,
        build: Vec<Row>,
        pw: usize,
        bw: usize,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        residual: Option<BoundExpr>,
        join: PhysJoinKind,
        batch_size: usize,
    ) {
        let mk = |budget: MemoryBudget| {
            let op = hash_join(
                replay(pw, probe.clone(), batch_size),
                replay(bw, build.clone(), batch_size),
                pw,
                bw,
                probe_keys.clone(),
                build_keys.clone(),
                residual.clone(),
                join,
                batch_size,
            )
            .with_budget(budget);
            drain(Box::new(op)).unwrap()
        };
        let unbounded = mk(MemoryBudget::unbounded());
        for limit in [1usize, 512, 16 * 1024] {
            let budget = MemoryBudget::with_limit(limit);
            let spilled = mk(budget.clone());
            assert_eq!(
                unbounded, spilled,
                "budget {limit} changed join output ({join:?})"
            );
            if limit == 1 && !build.is_empty() {
                assert!(budget.stats().spilled(), "1-byte budget must spill");
            }
        }
    }

    #[test]
    fn spilled_join_is_row_identical_to_in_memory() {
        // Skewed keys + NULLs + residual across every join kind.
        let probe: Vec<Row> = (0..300)
            .map(|i| {
                let k = if i % 11 == 0 {
                    Value::Null
                } else {
                    self::i(i % 17)
                };
                vec![k, self::i(i)]
            })
            .collect();
        let build: Vec<Row> = (0..200)
            .map(|i| {
                let k = if i % 13 == 0 {
                    Value::Null
                } else {
                    self::i(i % 23)
                };
                vec![k, self::i(i * 10)]
            })
            .collect();
        for join in [
            PhysJoinKind::Inner,
            PhysJoinKind::LeftOuter,
            PhysJoinKind::FullOuter,
        ] {
            assert_spill_identical(
                probe.clone(),
                build.clone(),
                2,
                2,
                vec![0],
                vec![0],
                None,
                join,
                7,
            );
            assert_spill_identical(
                probe.clone(),
                build.clone(),
                2,
                2,
                vec![0],
                vec![0],
                Some(gt(col(1), 40)),
                join,
                32,
            );
        }
        // Empty sides under a bounded budget.
        assert_spill_identical(
            probe.clone(),
            vec![],
            2,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::LeftOuter,
            4,
        );
        assert_spill_identical(
            vec![],
            build,
            2,
            2,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::FullOuter,
            4,
        );
    }

    #[test]
    fn bounded_budget_that_fits_uses_streaming_path() {
        // A build side far under the budget must not spill at all.
        let budget = MemoryBudget::with_limit(1 << 20);
        let op = hash_join(
            replay(1, (0..10).map(|v| vec![i(v)]).collect(), 4),
            replay(1, (0..10).map(|v| vec![i(v)]).collect(), 4),
            1,
            1,
            vec![0],
            vec![0],
            None,
            PhysJoinKind::Inner,
            4,
        )
        .with_budget(budget.clone());
        assert_eq!(drain(Box::new(op)).unwrap().len(), 10);
        assert!(!budget.stats().spilled());
    }

    #[test]
    fn cross_join_via_empty_keys() {
        let probe = vec![vec![i(1)], vec![i(2)]];
        let build = vec![vec![i(10)], vec![i(20)]];
        let out = run_keyless(probe, build, 1, 1, None, PhysJoinKind::Inner);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn non_equi_join_with_outer_padding() {
        let probe = vec![vec![i(1)], vec![i(5)]];
        let build = vec![vec![i(3)]];
        let inner = run_keyless(
            probe.clone(),
            build.clone(),
            1,
            1,
            Some(lt()),
            PhysJoinKind::Inner,
        );
        assert_eq!(inner, vec![vec![i(1), i(3)]]);
        let mut left = run_keyless(probe, build, 1, 1, Some(lt()), PhysJoinKind::LeftOuter);
        left.sort();
        assert_eq!(left, vec![vec![i(1), i(3)], vec![i(5), Value::Null]]);
    }

    #[test]
    fn keyless_residual_runs_in_chunks() {
        // 10 build rows against probe batches of 4: each probe batch has
        // 40 candidates, filtered 4 at a time. Pairs, pads and the FULL
        // OUTER tail must come out as a plain nested loop emits them —
        // and under a 1-byte budget too, which a keyless build side
        // ignores.
        let pv: Vec<i64> = (0..9).collect();
        let bv: Vec<i64> = (0..10).map(|v| v * 2 % 7).collect();
        let rows = |vs: &[i64]| -> Vec<Row> { vs.iter().map(|&v| vec![i(v)]).collect() };
        for join in [
            PhysJoinKind::Inner,
            PhysJoinKind::LeftOuter,
            PhysJoinKind::FullOuter,
        ] {
            let mut expected: Vec<Row> = Vec::new();
            let mut matched = vec![false; bv.len()];
            for &p in &pv {
                let before = expected.len();
                for (bi, &b) in bv.iter().enumerate() {
                    if p < b {
                        matched[bi] = true;
                        expected.push(vec![i(p), i(b)]);
                    }
                }
                if expected.len() == before && join != PhysJoinKind::Inner {
                    expected.push(vec![i(p), Value::Null]);
                }
            }
            if join == PhysJoinKind::FullOuter {
                let tail = bv.iter().zip(&matched).filter(|(_, &m)| !m);
                expected.extend(tail.map(|(&b, _)| vec![Value::Null, i(b)]));
            }
            let budget = MemoryBudget::with_limit(1);
            for b in [MemoryBudget::unbounded(), budget.clone()] {
                let op = hash_join(
                    replay(1, rows(&pv), 4),
                    replay(1, rows(&bv), 4),
                    1,
                    1,
                    vec![],
                    vec![],
                    Some(lt()),
                    join,
                    4,
                )
                .with_budget(b);
                assert_eq!(drain(Box::new(op)).unwrap(), expected, "{join:?}");
            }
            assert!(!budget.stats().spilled(), "a keyless build never spills");
        }
    }
}

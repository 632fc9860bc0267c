//! Join operators: build-probe hash join for equi-joins, nested loops
//! otherwise.
//!
//! Both operators materialize the build side once, then stream probe
//! batches. Output batches reuse the probe batch's columns through a
//! selection vector (zero-copy, possibly with repeats for multi-matches)
//! and gather only the build side. The hash join's residual predicate is
//! evaluated *vectorized*: candidate pairs are collected per probe batch,
//! spliced into one `probe ++ build` frame, and filtered by a compiled
//! kernel in a single pass. Output is chunked at the executor batch size
//! with carry-over state, so high-fan-out probes (skew, CROSS joins, the
//! FULL OUTER tail) can no longer emit oversized batches. The probe side
//! is the preserved side: `LeftOuter` pads unmatched probe rows,
//! `FullOuter` additionally emits unmatched build rows after the probe is
//! exhausted. SQL semantics: NULL keys never match.

use std::sync::Arc;

use crate::error::EngineError;
use crate::exec::batch::{ColumnData, JoinedRow, RowBatch};
use crate::exec::hash::{chain_prepend, hash_batch_keys, hash_rows_keys, FlatTable};
use crate::exec::spill::{
    for_each_fitting_group_pair, MemoryBudget, MergeEmit, OutputRuns, PartitionedSpiller,
    SpillPartition,
};
use crate::exec::typed::{note_fallback_rows, note_typed_rows, EncodedChunk, KeyArena};
use crate::exec::{BoxedOperator, Operator, Row};
use crate::expr::{BoundExpr, VectorKernel};
use crate::planner::physical::PhysJoinKind;
use crate::value::Value;

/// The materialized build side shared by both join flavors. Besides the
/// rows themselves it keeps a columnar copy behind `Arc`s: output batches
/// gather the build side by *selection* against those shared buffers
/// (one `Value` clone per build row at construction, zero per output
/// row), instead of cloning values once per emitted pair.
struct BuildSide {
    rows: Vec<Row>,
    cols: Vec<Arc<Vec<Value>>>,
    matched: Vec<bool>,
}

impl BuildSide {
    fn new(rows: Vec<Row>, width: usize) -> BuildSide {
        let mut cols: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
        let matched = vec![false; rows.len()];
        BuildSide {
            rows,
            cols: cols.into_iter().map(Arc::new).collect(),
            matched,
        }
    }

    fn consume<'a>(op: &mut BoxedOperator<'a>, width: usize) -> Result<BuildSide, EngineError> {
        let mut rows = Vec::new();
        while let Some(batch) = op.next_batch()? {
            rows.extend(batch.to_rows());
        }
        Ok(BuildSide::new(rows, width))
    }
}

/// Join output for one probe batch, emitted in `batch_size` chunks.
struct PendingOutput<'a> {
    batch: RowBatch<'a>,
    probe_sel: Vec<u32>,
    build_idx: Vec<u32>,
    /// Whether `build_idx` contains any `u32::MAX` NULL-pad slot (outer
    /// joins only): padded chunks gather the build side row-wise, while
    /// unpadded ones share the columnar build buffers zero-copy.
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
    fn next_chunk(
        &mut self,
        side: &BuildSide,
        build_width: usize,
        batch_size: usize,
    ) -> Option<RowBatch<'a>> {
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
            columns.extend(gather_build_columns(&side.rows, build_width, build_idx));
        } else {
            let sel = Arc::new(build_idx.to_vec());
            columns.extend(
                side.cols
                    .iter()
                    .map(|c| ColumnData::shared_with_sel(Arc::clone(c), Arc::clone(&sel))),
            );
        }
        Some(RowBatch::new(columns, rows))
    }
}

/// Gather `indices` out of the build rows into owned columns;
/// `u32::MAX` marks a NULL-padded (unmatched probe) slot.
pub(crate) fn gather_build_columns<'a>(
    build: &[Row],
    build_width: usize,
    indices: &[u32],
) -> Vec<ColumnData<'a>> {
    let mut columns: Vec<Vec<Value>> = (0..build_width)
        .map(|_| Vec::with_capacity(indices.len()))
        .collect();
    for &i in indices {
        if i == u32::MAX {
            for col in &mut columns {
                col.push(Value::Null);
            }
        } else {
            for (col, v) in columns.iter_mut().zip(&build[i as usize]) {
                col.push(v.clone());
            }
        }
    }
    columns.into_iter().map(ColumnData::owned).collect()
}

/// Splice a probe-side selection with gathered build columns into one
/// output batch of `probe ++ build` layout.
pub(crate) fn splice_output<'a>(
    probe_batch: &RowBatch<'a>,
    probe_sel: Vec<u32>,
    build: &[Row],
    build_width: usize,
    build_idx: &[u32],
) -> RowBatch<'a> {
    let rows = probe_sel.len();
    let mut columns = probe_batch.select(probe_sel).into_columns();
    columns.extend(gather_build_columns(build, build_width, build_idx));
    RowBatch::new(columns, rows)
}

/// Build rows never matched during probing (the FULL OUTER tail).
fn unmatched_build_ids(state: &BuildSide) -> Vec<u32> {
    state
        .matched
        .iter()
        .enumerate()
        .filter(|(_, m)| !**m)
        .map(|(i, _)| i as u32)
        .collect()
}

/// One chunk of the FULL OUTER tail: the given unmatched build rows,
/// padded with NULLs on the probe side.
pub(crate) fn unmatched_build_batch<'a>(
    build_rows: &[Row],
    ids: &[u32],
    probe_width: usize,
    build_width: usize,
) -> RowBatch<'a> {
    let mut columns: Vec<ColumnData<'a>> = (0..probe_width)
        .map(|_| ColumnData::owned(vec![Value::Null; ids.len()]))
        .collect();
    columns.extend(gather_build_columns(build_rows, build_width, ids));
    RowBatch::new(columns, ids.len())
}

/// Build-side key encode chunk size: bounds the scratch [`EncodedChunk`]
/// while the whole build side streams through the typed encoder.
const BUILD_ENCODE_CHUNK: usize = 4096;

/// Hash index over the build side: a [`FlatTable`] keyed by precomputed
/// key hashes whose payload is the *head* build-row index of a chain
/// threaded through `next` (rows with equal keys, in build-row order).
/// When every build key is representable in the typed layout, keys are
/// packed into a [`KeyArena`] (arena row `i` == build row `i`, null-key
/// rows included) so chain and probe compares are branch-free word
/// compares; otherwise compares fall back to the build rows themselves.
/// Every build row is hashed exactly once, by the vectorized key kernel.
pub(crate) struct JoinTable {
    table: FlatTable,
    /// Per build row: the next row with an equal key, `u32::MAX` at the
    /// chain end.
    next: Vec<u32>,
    /// Typed columnar copy of the build keys; `None` when some build key
    /// is unrepresentable (or the key set is empty).
    keys: Option<KeyArena>,
}

impl JoinTable {
    /// Index `rows` on `keys`. Rows with a NULL key never enter the table
    /// (SQL: NULL keys never match). Chains are built by *prepending*
    /// over a reverse scan, so candidate iteration yields build rows in
    /// increasing order — the serial output order contract.
    pub(crate) fn build(rows: &[Row], keys: &[usize]) -> JoinTable {
        let hashes = hash_rows_keys(rows, keys);
        let mut table = FlatTable::with_capacity(rows.len());
        let mut next = vec![u32::MAX; rows.len()];
        let arena = encode_build_keys(rows, keys);
        match &arena {
            Some(_) => note_typed_rows(rows.len() as u64),
            None => note_fallback_rows(rows.len() as u64),
        }
        for i in (0..rows.len()).rev() {
            if hashes.is_null(i) {
                continue;
            }
            match &arena {
                Some(a) => chain_prepend(
                    &mut table,
                    hashes.hashes[i],
                    i as u32,
                    |p| a.eq_rows(p as usize, i),
                    |head| next[i] = head,
                ),
                None => {
                    let row = &rows[i];
                    chain_prepend(
                        &mut table,
                        hashes.hashes[i],
                        i as u32,
                        |p| {
                            let head = &rows[p as usize];
                            keys.iter().all(|&k| head[k] == row[k])
                        },
                        |head| next[i] = head,
                    )
                }
            }
        }
        JoinTable {
            table,
            next,
            keys: arena,
        }
    }

    /// Push every build row matching the probe key onto `out`, in
    /// build-row order. The probe key is taken from `batch` columns
    /// `probe_keys` at row `r`, pre-hashed as `hash`. `chunk` is the
    /// batch's probe-side typed encoding when the build keys are typed
    /// (rows the typed layout can't represent compare exactly via
    /// [`KeyArena::eq_row_at`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_into(
        &self,
        hash: u64,
        batch: &RowBatch<'_>,
        r: usize,
        probe_keys: &[usize],
        build_rows: &[Row],
        build_keys: &[usize],
        chunk: Option<&EncodedChunk>,
        out: &mut Vec<u32>,
    ) {
        let head = match (&self.keys, chunk) {
            (Some(arena), Some(chunk)) if chunk.ok(r) => self
                .table
                .find(hash, |p| arena.eq_chunk(p as usize, chunk, r)),
            (Some(arena), _) => self.table.find(hash, |p| {
                arena.eq_row_at(p as usize, |c| batch.value(probe_keys[c], r))
            }),
            (None, _) => self.table.find(hash, |p| {
                let build = &build_rows[p as usize];
                probe_keys
                    .iter()
                    .zip(build_keys)
                    .all(|(&pk, &bk)| batch.value(pk, r) == &build[bk])
            }),
        };
        let mut cur = match head {
            Some(h) => h,
            None => return,
        };
        while cur != u32::MAX {
            out.push(cur);
            cur = self.next[cur as usize];
        }
    }

    /// The typed build-key arena, when the build side is representable.
    fn arena(&self) -> Option<&KeyArena> {
        self.keys.as_ref()
    }
}

/// Pack every build key into a fresh [`KeyArena`] (arena row == build
/// row), or `None` if any key value is unrepresentable. NULL-key rows
/// are encoded too — they never enter the hash table, but keeping the
/// arena index aligned with the row index keeps chain compares O(1).
pub(crate) fn encode_build_keys(rows: &[Row], keys: &[usize]) -> Option<KeyArena> {
    if keys.is_empty() {
        return None;
    }
    let mut arena = KeyArena::new(keys.len());
    arena.reserve(rows.len());
    let mut chunk = EncodedChunk::new();
    let mut base = 0;
    while base < rows.len() {
        let n = BUILD_ENCODE_CHUNK.min(rows.len() - base);
        arena.encode_chunk(&mut chunk, n, |r, c| &rows[base + r][keys[c]]);
        if !chunk.all_ok() {
            return None;
        }
        for r in 0..n {
            arena.push_from_chunk(&chunk, r);
        }
        base += n;
    }
    Some(arena)
}

/// One probe batch joined against a [`JoinTable`]: candidate pairs via
/// the flat table (chains in build-row order), residual kernel over one
/// spliced frame, output pairs in probe-row order with outer padding.
/// Shared by the streaming in-memory path and the per-partition spill
/// path — both produce identical pair sequences for identical inputs.
#[allow(clippy::too_many_arguments)]
fn join_probe_batch(
    table: &JoinTable,
    build_rows: &[Row],
    matched: &mut [bool],
    batch: &RowBatch<'_>,
    probe_keys: &[usize],
    build_keys: &[usize],
    residual: Option<&VectorKernel>,
    join: PhysJoinKind,
    build_width: usize,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    let preserve_probe = matches!(join, PhysJoinKind::LeftOuter | PhysJoinKind::FullOuter);
    let rows = batch.num_rows();
    let mut cand_rows: Vec<u32> = Vec::new();
    let mut cand_bis: Vec<u32> = Vec::new();
    // Typed probe: one fused column-at-a-time pass both hashes the
    // batch's probe keys and encodes them against the build arena
    // (lookup-only — a probe string absent from the build heap can match
    // nothing, so it is never interned), so each key value is
    // enum-dispatched exactly once and each candidate compare is a word
    // compare. Row-based build sides take the plain hash kernel.
    let (hashes, probe_chunk) = match table.arena() {
        Some(arena) => {
            let mut chunk = EncodedChunk::new();
            let hashes = arena.encode_probe_batch(&mut chunk, batch, probe_keys);
            note_typed_rows((rows - chunk.bad_rows()) as u64);
            note_fallback_rows(chunk.bad_rows() as u64);
            (hashes, Some(chunk))
        }
        None => {
            note_fallback_rows(rows as u64);
            (hash_batch_keys(batch, probe_keys), None)
        }
    };
    for row in 0..rows {
        if hashes.is_null(row) {
            continue;
        }
        table.probe_into(
            hashes.hashes[row],
            batch,
            row,
            probe_keys,
            build_rows,
            build_keys,
            probe_chunk.as_ref(),
            &mut cand_bis,
        );
        cand_rows.resize(cand_bis.len(), row as u32);
    }
    // Inner join without a residual: the candidate arrays already ARE
    // the output pairs — probe-row order with chains in build-row order
    // — and `matched` is only observed by the FULL OUTER tail. Skip the
    // pair-rebuild pass entirely.
    if join == PhysJoinKind::Inner && residual.is_none() {
        return Ok((cand_rows, cand_bis));
    }
    // Vectorized residual: one `probe ++ build` frame over every
    // candidate pair, filtered in a single kernel pass.
    let pass: Option<Vec<bool>> = match residual {
        Some(kernel) if !cand_rows.is_empty() => {
            let frame = splice_output(batch, cand_rows.clone(), build_rows, build_width, &cand_bis);
            let sel = kernel.select(&frame)?;
            let mut mask = vec![false; cand_rows.len()];
            for i in sel {
                mask[i as usize] = true;
            }
            Some(mask)
        }
        _ => None,
    };
    let mut probe_sel: Vec<u32> = Vec::new();
    let mut build_idx: Vec<u32> = Vec::new();
    let mut cur = 0usize;
    for row in 0..rows as u32 {
        let mut any = false;
        while cur < cand_rows.len() && cand_rows[cur] == row {
            if pass.as_ref().is_none_or(|m| m[cur]) {
                any = true;
                matched[cand_bis[cur] as usize] = true;
                probe_sel.push(row);
                build_idx.push(cand_bis[cur]);
            }
            cur += 1;
        }
        if !any && preserve_probe {
            probe_sel.push(row);
            build_idx.push(u32::MAX);
        }
    }
    Ok((probe_sel, build_idx))
}

/// Build-probe hash join on plan-time-extracted equi-keys.
///
/// With a bounded [`MemoryBudget`] the build side accumulates through a
/// [`PartitionedSpiller`]; if it overflows, the join switches to a
/// Grace-style plan: the probe side is partitioned on the same hash
/// bits, resident partitions join first-class while spilled build
/// partitions rehydrate one at a time against their probe runs
/// (recursively re-partitioned on a rotated bit range when a partition
/// still does not fit). Every output row carries its serial emission
/// coordinates `(probe row, match ordinal)` — the FULL OUTER tail sorts
/// after all probe output by build order — so the merged result is
/// row-identical, order included, to the in-memory join.
pub struct HashJoinOp<'a> {
    probe: BoxedOperator<'a>,
    build: BoxedOperator<'a>,
    probe_width: usize,
    build_width: usize,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    residual: Option<VectorKernel>,
    join: PhysJoinKind,
    batch_size: usize,
    budget: MemoryBudget,
    state: Option<(BuildSide, JoinTable)>,
    /// Build partition groups (one per producer) awaiting the Grace
    /// probe phase.
    grace_build: Option<Vec<Vec<SpillPartition>>>,
    /// Pre-partitioned probe groups from a parallel scan; when absent
    /// the Grace phase partitions `probe` itself.
    grace_probe: Option<Vec<Vec<SpillPartition>>>,
    /// Streaming Grace output merge, emitted in serial order.
    grace_output: Option<MergeEmit>,
    pending: Option<PendingOutput<'a>>,
    probe_done: bool,
    tail: Option<(Vec<u32>, usize)>,
}

impl<'a> HashJoinOp<'a> {
    /// Create the operator; the hash table is built on first pull.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        probe: BoxedOperator<'a>,
        build: BoxedOperator<'a>,
        probe_width: usize,
        build_width: usize,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        residual: Option<BoundExpr>,
        join: PhysJoinKind,
        batch_size: usize,
    ) -> HashJoinOp<'a> {
        debug_assert_eq!(probe_keys.len(), build_keys.len());
        HashJoinOp {
            probe,
            build,
            probe_width,
            build_width,
            probe_keys,
            build_keys,
            residual: residual.as_ref().map(VectorKernel::compile),
            join,
            batch_size: batch_size.max(1),
            budget: MemoryBudget::unbounded(),
            state: None,
            grace_build: None,
            grace_probe: None,
            grace_output: None,
            pending: None,
            probe_done: false,
            tail: None,
        }
    }

    /// Attach a memory budget: a build side that overflows it spills to
    /// disk and the join runs Grace-style, partition at a time.
    pub fn with_budget(mut self, budget: MemoryBudget) -> HashJoinOp<'a> {
        self.budget = budget;
        self
    }

    /// Feed the join from pre-partitioned build/probe groups (one spiller
    /// result per parallel worker) instead of the input operators. The
    /// join goes straight to the Grace phase; the sequence tags must be
    /// globally unique and per-group ascending.
    pub(crate) fn with_prepartitioned(
        mut self,
        build_groups: Vec<Vec<SpillPartition>>,
        probe_groups: Vec<Vec<SpillPartition>>,
    ) -> HashJoinOp<'a> {
        self.grace_build = Some(build_groups);
        self.grace_probe = Some(probe_groups);
        self
    }

    fn ensure_built(&mut self) -> Result<(), EngineError> {
        if self.state.is_some() || self.grace_build.is_some() || self.grace_output.is_some() {
            return Ok(());
        }
        if !self.budget.is_bounded() {
            let side = BuildSide::consume(&mut self.build, self.build_width)?;
            // Sized from the exact build-row count: no rehash during build.
            let table = JoinTable::build(&side.rows, &self.build_keys);
            self.state = Some((side, table));
            return Ok(());
        }
        // Bounded budget: accumulate the build side through the radix
        // spiller. Each build row is tagged with its build sequence so
        // partition chains (and the FULL OUTER tail) keep build order.
        let mut spiller = PartitionedSpiller::new(self.budget.clone(), 0);
        let mut seq = 0u64;
        while let Some(batch) = self.build.next_batch()? {
            let hashes = hash_batch_keys(&batch, &self.build_keys);
            for r in 0..batch.num_rows() {
                spiller.push(hashes.hashes[r], seq, batch.materialize_row(r))?;
                seq += 1;
            }
        }
        if !spiller.spilled_any() {
            // Everything fit: reassemble build order and run the normal
            // streaming join — bounded-budget queries that fit behave
            // exactly like unbounded ones.
            let mut tuples: Vec<(u64, u64, Row)> = Vec::with_capacity(seq as usize);
            for part in spiller.finish()? {
                tuples.extend(part.load(&self.budget)?);
            }
            tuples.sort_by_key(|(_, s, _)| *s);
            let rows: Vec<Row> = tuples.into_iter().map(|(_, _, r)| r).collect();
            let table = JoinTable::build(&rows, &self.build_keys);
            self.state = Some((BuildSide::new(rows, self.build_width), table));
        } else {
            self.grace_build = Some(vec![spiller.finish()?]);
        }
        Ok(())
    }

    /// Join one probe batch against the in-memory build side.
    fn join_batch(&mut self, batch: &RowBatch<'a>) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
        let (side, table) = self.state.as_mut().expect("built before probing");
        join_probe_batch(
            table,
            &side.rows,
            &mut side.matched,
            batch,
            &self.probe_keys,
            &self.build_keys,
            self.residual.as_ref(),
            self.join,
            self.build_width,
        )
    }

    /// The Grace phase: partition the probe side on the build's bit
    /// range (unless it arrived pre-partitioned), join partition pairs
    /// (recursing when a build partition still does not fit), and emit
    /// through a k-way merge over per-partition output runs — the serial
    /// emission order is restored without materializing the result.
    fn run_grace(&mut self) -> Result<MergeEmit, EngineError> {
        let build_groups = self.grace_build.take().expect("grace build partitions");
        let probe_groups = match self.grace_probe.take() {
            Some(groups) => groups,
            None => {
                let mut probe_spiller = PartitionedSpiller::new(self.budget.clone(), 0);
                let mut pseq = 0u64;
                while let Some(batch) = self.probe.next_batch()? {
                    let hashes = hash_batch_keys(&batch, &self.probe_keys);
                    for r in 0..batch.num_rows() {
                        probe_spiller.push(hashes.hashes[r], pseq, batch.materialize_row(r))?;
                        pseq += 1;
                    }
                }
                vec![probe_spiller.finish()?]
            }
        };

        // (probe seq, match ordinal) emission keys; the FULL OUTER tail
        // uses probe seq u64::MAX so it merges after every probe row,
        // ordered by global build sequence — exactly the serial tail
        // position. Each partition pair appends one key-ascending run.
        let mut runs = OutputRuns::new(self.budget.clone());
        let budget = self.budget.clone();
        let (probe_keys, build_keys) = (self.probe_keys.clone(), self.build_keys.clone());
        let (probe_width, build_width) = (self.probe_width, self.build_width);
        let (join, residual) = (self.join, self.residual.as_ref());
        let chunk_rows = self.batch_size;
        for_each_fitting_group_pair(
            build_groups,
            probe_groups,
            &budget,
            0,
            &mut |build_tuples, probe_merge| {
                // Build tuples arrive sequence-ascending, so chains built
                // by `JoinTable::build` iterate in global build order.
                let build_seqs: Vec<u64> = build_tuples.iter().map(|(_, s, _)| *s).collect();
                let build_rows: Vec<Row> = build_tuples.into_iter().map(|(_, _, r)| r).collect();
                let table = JoinTable::build(&build_rows, &build_keys);
                let mut matched = vec![false; build_rows.len()];
                runs.begin_run();
                probe_merge.for_each_chunk(chunk_rows, |chunk| {
                    let seqs: Vec<u64> = chunk.iter().map(|(_, s, _)| *s).collect();
                    let rows: Vec<Row> = chunk.into_iter().map(|(_, _, r)| r).collect();
                    let batch = RowBatch::from_rows(probe_width, rows);
                    let (probe_sel, build_idx) = join_probe_batch(
                        &table,
                        &build_rows,
                        &mut matched,
                        &batch,
                        &probe_keys,
                        &build_keys,
                        residual,
                        join,
                        build_width,
                    )?;
                    let mut ordinal = 0u64;
                    let mut prev_row = u32::MAX;
                    for (&row, &bi) in probe_sel.iter().zip(&build_idx) {
                        if row != prev_row {
                            ordinal = 0;
                            prev_row = row;
                        }
                        let mut out = batch.materialize_row(row as usize);
                        if bi == u32::MAX {
                            out.extend(std::iter::repeat_n(Value::Null, build_width));
                        } else {
                            out.extend(build_rows[bi as usize].iter().cloned());
                        }
                        runs.push(seqs[row as usize], ordinal, out)?;
                        ordinal += 1;
                    }
                    Ok(())
                })?;
                if join == PhysJoinKind::FullOuter {
                    for (bi, m) in matched.iter().enumerate() {
                        if !*m {
                            let mut out: Row = vec![Value::Null; probe_width];
                            out.extend(build_rows[bi].iter().cloned());
                            runs.push(u64::MAX, build_seqs[bi], out)?;
                        }
                    }
                }
                Ok(())
            },
        )?;
        runs.finish(probe_width + build_width, self.batch_size)
    }

    fn emit_pending(&mut self) -> Option<RowBatch<'a>> {
        let pending = self.pending.as_mut()?;
        let (side, _) = self.state.as_ref().expect("built before emitting");
        let out = pending.next_chunk(side, self.build_width, self.batch_size);
        if out.is_none() {
            self.pending = None;
        }
        out
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
            return self.grace_output.as_mut().expect("just set").next_batch();
        }
        loop {
            if let Some(out) = self.emit_pending() {
                return Ok(Some(out));
            }
            if self.probe_done {
                break;
            }
            let Some(batch) = self.probe.next_batch()? else {
                self.probe_done = true;
                break;
            };
            let (probe_sel, build_idx) = self.join_batch(&batch)?;
            if !probe_sel.is_empty() {
                self.pending = Some(PendingOutput::new(batch, probe_sel, build_idx));
            }
        }
        if self.join == PhysJoinKind::FullOuter {
            let (side, _) = self.state.as_ref().expect("built above");
            let (ids, offset) = self
                .tail
                .get_or_insert_with(|| (unmatched_build_ids(side), 0));
            if *offset < ids.len() {
                let end = (*offset + self.batch_size).min(ids.len());
                let chunk = &ids[*offset..end];
                *offset = end;
                return Ok(Some(unmatched_build_batch(
                    &side.rows,
                    chunk,
                    self.probe_width,
                    self.build_width,
                )));
            }
        }
        Ok(None)
    }
}

/// Nested-loop join for CROSS joins and non-equi ON conditions. Output is
/// chunked at the executor batch size: a CROSS join of two 1k-row inputs
/// streams out in bounded batches instead of one million-row batch.
pub struct NestedLoopJoinOp<'a> {
    probe: BoxedOperator<'a>,
    build: BoxedOperator<'a>,
    probe_width: usize,
    build_width: usize,
    on: Option<BoundExpr>,
    join: PhysJoinKind,
    batch_size: usize,
    state: Option<BuildSide>,
    pending: Option<PendingOutput<'a>>,
    probe_done: bool,
    tail: Option<(Vec<u32>, usize)>,
}

impl<'a> NestedLoopJoinOp<'a> {
    /// Create the operator; the build side materializes on first pull.
    pub fn new(
        probe: BoxedOperator<'a>,
        build: BoxedOperator<'a>,
        probe_width: usize,
        build_width: usize,
        on: Option<BoundExpr>,
        join: PhysJoinKind,
        batch_size: usize,
    ) -> NestedLoopJoinOp<'a> {
        NestedLoopJoinOp {
            probe,
            build,
            probe_width,
            build_width,
            on,
            join,
            batch_size: batch_size.max(1),
            state: None,
            pending: None,
            probe_done: false,
            tail: None,
        }
    }

    fn emit_pending(&mut self) -> Option<RowBatch<'a>> {
        let pending = self.pending.as_mut()?;
        let side = self.state.as_ref().expect("built before emitting");
        let out = pending.next_chunk(side, self.build_width, self.batch_size);
        if out.is_none() {
            self.pending = None;
        }
        out
    }
}

impl<'a> Operator<'a> for NestedLoopJoinOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.state.is_none() {
            self.state = Some(BuildSide::consume(&mut self.build, self.build_width)?);
        }
        let preserve_probe = matches!(self.join, PhysJoinKind::LeftOuter | PhysJoinKind::FullOuter);
        loop {
            if let Some(out) = self.emit_pending() {
                return Ok(Some(out));
            }
            if self.probe_done {
                break;
            }
            let Some(batch) = self.probe.next_batch()? else {
                self.probe_done = true;
                break;
            };
            let side = self.state.as_mut().expect("built above");
            let mut probe_sel: Vec<u32> = Vec::new();
            let mut build_idx: Vec<u32> = Vec::new();
            for row in 0..batch.num_rows() {
                let mut matched = false;
                for (bi, build_row) in side.rows.iter().enumerate() {
                    let ok = match &self.on {
                        None => true,
                        Some(pred) => {
                            let joined =
                                JoinedRow::new(batch.row_view(row), self.probe_width, build_row);
                            pred.eval(&joined)?.as_bool() == Some(true)
                        }
                    };
                    if ok {
                        matched = true;
                        side.matched[bi] = true;
                        probe_sel.push(row as u32);
                        build_idx.push(bi as u32);
                    }
                }
                if !matched && preserve_probe {
                    probe_sel.push(row as u32);
                    build_idx.push(u32::MAX);
                }
            }
            if !probe_sel.is_empty() {
                self.pending = Some(PendingOutput::new(batch, probe_sel, build_idx));
            }
        }
        if self.join == PhysJoinKind::FullOuter {
            let side = self.state.as_ref().expect("built above");
            let (ids, offset) = self
                .tail
                .get_or_insert_with(|| (unmatched_build_ids(side), 0));
            if *offset < ids.len() {
                let end = (*offset + self.batch_size).min(ids.len());
                let chunk = &ids[*offset..end];
                *offset = end;
                return Ok(Some(unmatched_build_batch(
                    &side.rows,
                    chunk,
                    self.probe_width,
                    self.build_width,
                )));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{drain, replay};
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
        let op = HashJoinOp::new(
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

    fn run_nl(
        probe: Vec<Row>,
        build: Vec<Row>,
        pw: usize,
        bw: usize,
        on: Option<BoundExpr>,
        join: PhysJoinKind,
    ) -> Vec<Row> {
        let op = NestedLoopJoinOp::new(
            replay(pw, probe, 2),
            replay(bw, build, 2),
            pw,
            bw,
            on,
            join,
            2,
        );
        drain(Box::new(op)).unwrap()
    }

    #[test]
    fn join_output_batches_are_bounded() {
        // CROSS 10 × 10 at batch_size 4: 100 output rows, every batch ≤ 4.
        let probe: Vec<Row> = (0..10).map(|v| vec![i(v)]).collect();
        let build: Vec<Row> = (0..10).map(|v| vec![i(v * 100)]).collect();
        let mut op = NestedLoopJoinOp::new(
            replay(1, probe, 4),
            replay(1, build, 4),
            1,
            1,
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
        let mut op = HashJoinOp::new(
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
        let mut op = HashJoinOp::new(
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
            let op = HashJoinOp::new(
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
        let op = HashJoinOp::new(
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
    fn cross_join_via_nested_loop() {
        let probe = vec![vec![i(1)], vec![i(2)]];
        let build = vec![vec![i(10)], vec![i(20)]];
        let out = run_nl(probe, build, 1, 1, None, PhysJoinKind::Inner);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn non_equi_nested_loop_with_outer_padding() {
        // probe.v < build.v
        let lt = BoundExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(col(0)),
            right: Box::new(col(1)),
        };
        let probe = vec![vec![i(1)], vec![i(5)]];
        let build = vec![vec![i(3)]];
        let inner = run_nl(
            probe.clone(),
            build.clone(),
            1,
            1,
            Some(lt.clone()),
            PhysJoinKind::Inner,
        );
        assert_eq!(inner, vec![vec![i(1), i(3)]]);
        let mut left = run_nl(probe, build, 1, 1, Some(lt), PhysJoinKind::LeftOuter);
        left.sort();
        assert_eq!(left, vec![vec![i(1), i(3)], vec![i(5), Value::Null]]);
    }
}

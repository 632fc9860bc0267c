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
//! FULL OUTER tail) never emit oversized batches. The probe side is the
//! preserved side: `LeftOuter` pads unmatched probe rows, `FullOuter`
//! additionally emits unmatched build rows after the probe is exhausted.
//! SQL semantics: NULL keys never match.
//!
//! A built hash-join build side ([`BuiltJoin`]) is immutable apart from
//! its FULL OUTER match flags, which are atomics: a serial plan probes it
//! from one [`HashJoinOp`], the morsel executor from one `HashJoinOp` per
//! morsel on every worker ([`HashJoinOp::shared`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::EngineError;
use crate::exec::batch::{ColumnData, JoinedRow, RowBatch};
use crate::exec::hash::{chain_prepend, hash_rows_keys, FlatTable, KeyHashes};
use crate::exec::spill::{
    for_each_fitting_group_pair, spill_batches, MemoryBudget, MergeEmit, OutputRuns,
    PartitionedSpiller, SpillHash, SpillPartition,
};
use crate::exec::typed::{EncodedChunk, KeyArena};
use crate::exec::{drain, BoxedOperator, Operator, Row};
use crate::expr::{BoundExpr, VectorKernel};
use crate::planner::physical::PhysJoinKind;
use crate::value::Value;

/// Build sides smaller than this get one flat table built on the calling
/// thread: below it the radix pass and the per-partition tables cost more
/// than the builder threads save.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Per-build-row "some probe row matched me" flags. They exist only to
/// compute the FULL OUTER tail, so every other join kind gets none and
/// skips the per-match store. Stores and loads are `Relaxed`: a flag
/// publishes no other data, and the tail reads them only after every
/// prober has finished (same thread, or joined by `std::thread::scope`).
fn matched_flags(rows: usize, join: PhysJoinKind) -> Vec<AtomicBool> {
    let tracked = if join == PhysJoinKind::FullOuter {
        rows
    } else {
        0
    };
    (0..tracked).map(|_| AtomicBool::new(false)).collect()
}

/// The materialized build side shared by both join flavors. Besides the
/// rows themselves it keeps a columnar copy behind `Arc`s: output batches
/// gather the build side by *selection* against those shared buffers
/// (one `Value` clone per build row at construction, zero per output
/// row), instead of cloning values once per emitted pair.
pub(crate) struct BuildSide {
    rows: Vec<Row>,
    cols: Vec<Arc<Vec<Value>>>,
    /// See [`matched_flags`].
    matched: Vec<AtomicBool>,
}

impl BuildSide {
    fn new(rows: Vec<Row>, width: usize, join: PhysJoinKind) -> BuildSide {
        let mut cols: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in &rows {
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v.clone());
            }
        }
        let matched = matched_flags(rows.len(), join);
        BuildSide {
            rows,
            cols: cols.into_iter().map(Arc::new).collect(),
            matched,
        }
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
fn gather_build_columns<'a>(
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

/// The FULL OUTER tail: the build rows no prober matched, NULL-padded on
/// the probe side, emitted in `batch_size` chunks.
struct OuterTail {
    ids: Vec<u32>,
    offset: usize,
}

impl OuterTail {
    /// Snapshot the unmatched build rows — once every prober is done.
    fn new(side: &BuildSide) -> OuterTail {
        let ids = side
            .matched
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.load(Ordering::Relaxed))
            .map(|(i, _)| i as u32)
            .collect();
        OuterTail { ids, offset: 0 }
    }

    fn next_chunk<'a>(
        &mut self,
        side: &BuildSide,
        probe_width: usize,
        build_width: usize,
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
        columns.extend(gather_build_columns(&side.rows, build_width, ids));
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
    /// across `workers` scoped threads: contiguous row chunks hash and
    /// bucketize in parallel (per-partition row lists concatenate in
    /// chunk order, keeping global row order), then the partitions'
    /// tables are built in parallel. Anything smaller, or one worker,
    /// builds a single table on the calling thread.
    pub(crate) fn build(rows: &[Row], keys: &[usize], workers: usize) -> JoinTable {
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
            let chunk_out: Vec<(KeyHashes, Vec<Vec<u32>>)> = std::thread::scope(|s| {
                let handles: Vec<_> = rows
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, slice)| {
                        let bucketize = &bucketize;
                        s.spawn(move || bucketize(ci * chunk, slice))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("join build hasher panicked"))
                    .collect()
            });
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
            let built: Vec<Vec<BuiltPartition>> = std::thread::scope(|s| {
                let handles: Vec<_> = part_rows
                    .chunks(nparts.div_ceil(workers))
                    .map(|lists| {
                        let build_part = &build_part;
                        s.spawn(move || {
                            lists
                                .iter()
                                .map(|list| {
                                    let mut updates: Vec<(u32, u32)> = Vec::new();
                                    let table =
                                        build_part(list, &mut |i, head| updates.push((i, head)));
                                    (table, updates)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("join partition builder panicked"))
                    .collect()
            });
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
        JoinTable {
            parts,
            part_shift,
            next,
            keys: arena,
        }
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
    /// `residual` must be prepared; it is compiled to a kernel here.
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

/// A build side ready to probe: its rows and the hash index over them.
pub(crate) struct BuiltJoin {
    side: BuildSide,
    table: JoinTable,
}

impl BuiltJoin {
    /// Materialize and index `rows` as the build side of `spec`, across
    /// up to `workers` threads (see [`JoinTable::build`]).
    pub(crate) fn new(rows: Vec<Row>, spec: &JoinSpec, workers: usize) -> BuiltJoin {
        // Sized from the exact build-row count: no rehash during build.
        let table = JoinTable::build(&rows, &spec.build_keys, workers);
        BuiltJoin {
            side: BuildSide::new(rows, spec.build_width, spec.join),
            table,
        }
    }
}

/// One probe batch joined against a [`JoinTable`]: candidate pairs via
/// the flat tables (chains in build-row order), residual kernel over one
/// spliced frame, output pairs in probe-row order with outer padding.
/// The one probe, for the streaming in-memory path (one prober or one
/// per morsel worker) and the per-partition spill path — all produce
/// identical pair sequences for identical inputs. `matched` is
/// [`matched_flags`] for `build_rows`.
fn join_probe_batch(
    spec: &JoinSpec,
    table: &JoinTable,
    build_rows: &[Row],
    matched: &[AtomicBool],
    batch: &RowBatch<'_>,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    let preserve_probe = matches!(spec.join, PhysJoinKind::LeftOuter | PhysJoinKind::FullOuter);
    let rows = batch.num_rows();
    let mut cand_rows: Vec<u32> = Vec::new();
    let mut cand_bis: Vec<u32> = Vec::new();
    // One fused column-at-a-time pass both hashes the batch's probe keys
    // and encodes them against the build arena (lookup-only — a probe
    // string absent from the build heap can match nothing, so it is never
    // interned), so each key value is enum-dispatched exactly once and
    // each candidate compare is a word compare.
    let arena = &table.keys;
    let mut chunk = EncodedChunk::new();
    let hashes = arena.encode_probe_batch(&mut chunk, batch, &spec.probe_keys);
    for row in 0..rows {
        if hashes.is_null(row) {
            continue;
        }
        // The chain head for this probe key, then every build row on the
        // chain (build-row order).
        let hash = hashes.hashes[row];
        let part = &table.parts[partition_of(hash, table.part_shift)];
        let head = part.find(hash, |p| arena.eq_chunk(p as usize, &chunk, row));
        let mut cur = head.unwrap_or(u32::MAX);
        while cur != u32::MAX {
            cand_bis.push(cur);
            cur = table.next[cur as usize];
        }
        cand_rows.resize(cand_bis.len(), row as u32);
    }
    // Inner join without a residual: the candidate arrays already ARE
    // the output pairs — probe-row order with chains in build-row order
    // — and `matched` is only observed by the FULL OUTER tail. Skip the
    // pair-rebuild pass entirely.
    if spec.join == PhysJoinKind::Inner && spec.residual.is_none() {
        return Ok((cand_rows, cand_bis));
    }
    // Vectorized residual: one `probe ++ build` frame over every
    // candidate pair, filtered in a single kernel pass.
    let pass: Option<Vec<bool>> = match &spec.residual {
        Some(kernel) if !cand_rows.is_empty() => {
            let mut columns = batch.select(cand_rows.clone()).into_columns();
            columns.extend(gather_build_columns(
                build_rows,
                spec.build_width,
                &cand_bis,
            ));
            let sel = kernel.select(&RowBatch::new(columns, cand_rows.len()))?;
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
                if let Some(flag) = matched.get(cand_bis[cur] as usize) {
                    flag.store(true, Ordering::Relaxed);
                }
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
    /// Taken when the build side is consumed; `None` from the start when
    /// it arrives already built or pre-partitioned.
    build: Option<BoxedOperator<'a>>,
    spec: Arc<JoinSpec>,
    batch_size: usize,
    budget: MemoryBudget,
    state: Option<Arc<BuiltJoin>>,
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
    /// Whether this operator emits the FULL OUTER tail once its probe is
    /// exhausted (false for all but one of the probers sharing a build).
    emits_tail: bool,
    tail: Option<OuterTail>,
}

impl<'a> HashJoinOp<'a> {
    /// Create the operator; the hash table is built on first pull, on
    /// the pulling thread.
    pub(crate) fn new(
        probe: BoxedOperator<'a>,
        build: Option<BoxedOperator<'a>>,
        spec: Arc<JoinSpec>,
        batch_size: usize,
    ) -> HashJoinOp<'a> {
        HashJoinOp {
            probe,
            build,
            emits_tail: spec.join == PhysJoinKind::FullOuter,
            spec,
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

    /// Probe a build side built elsewhere and shared with other probers:
    /// how the morsel executor runs one join node over many slot ranges.
    /// Exactly one of the probers — started after every other finished —
    /// passes `emits_tail` and so emits the FULL OUTER tail.
    pub(crate) fn shared(
        probe: BoxedOperator<'a>,
        spec: Arc<JoinSpec>,
        built: Arc<BuiltJoin>,
        batch_size: usize,
        emits_tail: bool,
    ) -> HashJoinOp<'a> {
        let mut op = HashJoinOp::new(probe, None, spec, batch_size);
        op.state = Some(built);
        op.emits_tail &= emits_tail;
        op
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
        let mut build = self.build.take().expect("the build input is consumed once");
        let rows = if !self.budget.is_bounded() {
            drain(build)?
        } else {
            // Bounded budget: accumulate the build side through the radix
            // spiller. Each build row is tagged with its build sequence so
            // partition chains (and the FULL OUTER tail) keep build order.
            let mut spiller = PartitionedSpiller::new(self.budget.clone(), 0);
            let hash = SpillHash::Keys(&self.spec.build_keys);
            let seq = spill_batches(&mut build, &hash, 0, &mut spiller)?;
            if spiller.spilled_any() {
                self.grace_build = Some(vec![spiller.finish()?]);
                return Ok(());
            }
            // Everything fit: reassemble build order and run the normal
            // streaming join — bounded-budget queries that fit behave
            // exactly like unbounded ones.
            let mut tuples: Vec<(u64, u64, Row)> = Vec::with_capacity(seq as usize);
            for part in spiller.finish()? {
                tuples.extend(part.load(&self.budget)?);
            }
            tuples.sort_by_key(|(_, s, _)| *s);
            tuples.into_iter().map(|(_, _, r)| r).collect()
        };
        self.state = Some(Arc::new(BuiltJoin::new(rows, &self.spec, 1)));
        Ok(())
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
                let mut spiller = PartitionedSpiller::new(self.budget.clone(), 0);
                let hash = SpillHash::Keys(&self.spec.probe_keys);
                spill_batches(&mut self.probe, &hash, 0, &mut spiller)?;
                vec![spiller.finish()?]
            }
        };

        // (probe seq, match ordinal) emission keys; the FULL OUTER tail
        // uses probe seq u64::MAX so it merges after every probe row,
        // ordered by global build sequence — exactly the serial tail
        // position. Each partition pair appends one key-ascending run.
        let mut runs = OutputRuns::new(self.budget.clone());
        let budget = self.budget.clone();
        let spec = &*self.spec;
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
                let table = JoinTable::build(&build_rows, &spec.build_keys, 1);
                let matched = matched_flags(build_rows.len(), spec.join);
                runs.begin_run();
                probe_merge.for_each_chunk(chunk_rows, |chunk| {
                    let seqs: Vec<u64> = chunk.iter().map(|(_, s, _)| *s).collect();
                    let rows: Vec<Row> = chunk.into_iter().map(|(_, _, r)| r).collect();
                    let batch = RowBatch::from_rows(spec.probe_width, rows);
                    let (probe_sel, build_idx) =
                        join_probe_batch(spec, &table, &build_rows, &matched, &batch)?;
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
                            out.extend(build_rows[bi as usize].iter().cloned());
                        }
                        runs.push(seqs[row as usize], ordinal, out)?;
                        ordinal += 1;
                    }
                    Ok(())
                })?;
                for (bi, m) in matched.iter().enumerate() {
                    if !m.load(Ordering::Relaxed) {
                        let mut out: Row = vec![Value::Null; spec.probe_width];
                        out.extend(build_rows[bi].iter().cloned());
                        runs.push(u64::MAX, build_seqs[bi], out)?;
                    }
                }
                Ok(())
            },
        )?;
        runs.finish(self.batch_size)
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
        let built = self.state.as_deref().expect("built above");
        let spec = &*self.spec;
        loop {
            if let Some(pending) = self.pending.as_mut() {
                match pending.next_chunk(&built.side, spec.build_width, self.batch_size) {
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
            let (probe_sel, build_idx) = join_probe_batch(
                spec,
                &built.table,
                &built.side.rows,
                &built.side.matched,
                &batch,
            )?;
            if !probe_sel.is_empty() {
                self.pending = Some(PendingOutput::new(batch, probe_sel, build_idx));
            }
        }
        if !self.emits_tail {
            return Ok(None);
        }
        let tail = self.tail.get_or_insert_with(|| OuterTail::new(&built.side));
        Ok(tail.next_chunk(
            &built.side,
            spec.probe_width,
            spec.build_width,
            self.batch_size,
        ))
    }
}

/// Nested-loop join for CROSS joins and non-equi ON conditions. Output is
/// chunked at the executor batch size: a CROSS join of two 1k-row inputs
/// streams out in bounded batches instead of one million-row batch.
pub struct NestedLoopJoinOp<'a> {
    probe: BoxedOperator<'a>,
    build: Option<BoxedOperator<'a>>,
    probe_width: usize,
    build_width: usize,
    on: Option<BoundExpr>,
    join: PhysJoinKind,
    batch_size: usize,
    state: Option<BuildSide>,
    pending: Option<PendingOutput<'a>>,
    probe_done: bool,
    tail: Option<OuterTail>,
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
            build: Some(build),
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
}

impl<'a> Operator<'a> for NestedLoopJoinOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.state.is_none() {
            let rows = drain(self.build.take().expect("built once"))?;
            self.state = Some(BuildSide::new(rows, self.build_width, self.join));
        }
        let side = self.state.as_ref().expect("built above");
        let preserve_probe = matches!(self.join, PhysJoinKind::LeftOuter | PhysJoinKind::FullOuter);
        loop {
            if let Some(pending) = self.pending.as_mut() {
                match pending.next_chunk(side, self.build_width, self.batch_size) {
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
                        if let Some(flag) = side.matched.get(bi) {
                            flag.store(true, Ordering::Relaxed);
                        }
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
        if self.join != PhysJoinKind::FullOuter {
            return Ok(None);
        }
        let tail = self.tail.get_or_insert_with(|| OuterTail::new(side));
        Ok(tail.next_chunk(side, self.probe_width, self.build_width, self.batch_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::replay;
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
        HashJoinOp::new(probe, Some(build), Arc::new(spec), batch_size)
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

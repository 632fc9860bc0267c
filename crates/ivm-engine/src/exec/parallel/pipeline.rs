//! Pipeline decomposition and the morsel worker loop.
//!
//! A [`PipelineSpec`] is the parallel-executable form of one *pipeline*:
//! a [`Table`] scan leaf (with an optional pushed-down predicate kernel)
//! followed by a stack of morsel-local [`Stage`]s — filters, projections,
//! and hash-join probes against pre-built, hash-partitioned build sides.
//! Worker threads claim morsels from a [`MorselCursor`] and run the whole
//! stage stack over each morsel's batches; per-morsel results carry the
//! morsel sequence number so the coordinator can restore the serial row
//! order when concatenating or merging.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::error::EngineError;
use crate::exec::aggregate::{AggSpec, GroupTable};
use crate::exec::batch::{ColumnData, RowBatch};
use crate::exec::hash::{
    chain_prepend, hash_batch_keys, hash_batch_rows, hash_rows_keys, FlatTable, KeyHashes,
};
use crate::exec::join::{encode_build_keys, splice_output, unmatched_build_batch};
use crate::exec::spill::{PartitionedSpiller, SpillPartition};
use crate::exec::typed::{note_fallback_rows, note_typed_rows, EncodedChunk, KeyArena};
use crate::exec::{prepare_expr, ExecContext, Row};
use crate::expr::VectorKernel;
use crate::planner::physical::{PhysJoinKind, PhysicalPlan};
use crate::storage::{MorselCursor, Table};

/// Build sides smaller than this skip radix partitioning entirely (one
/// flat table, built single-threaded): below it the partition pass and
/// per-partition tables cost more than they save.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// One parallel pipeline: scan leaf plus morsel-local stages.
pub(super) struct PipelineSpec<'a> {
    pub(super) table: &'a Table,
    scan_kernel: Option<VectorKernel>,
    pub(super) stages: Vec<Stage>,
}

/// A morsel-local operator applied to each batch in turn.
pub(super) enum Stage {
    /// Vectorized predicate; forwards a composed selection.
    Filter(VectorKernel),
    /// Projection: column passthrough or computed kernel per output.
    Project(Vec<Proj>),
    /// Hash-join probe against a shared partitioned build side. Boxed:
    /// the stage carries the build tables + typed key arena and would
    /// otherwise dominate the enum's size.
    Join(Box<JoinStage>),
}

/// One projection output column.
pub(super) enum Proj {
    Pass(usize),
    Compute(VectorKernel),
}

fn partition_count(workers: usize) -> usize {
    (workers.max(1) * 4).next_power_of_two().min(64)
}

/// One built radix partition: its flat table plus the `(row, next)` chain
/// updates to apply to the shared chain array.
type BuiltPartition = (FlatTable, Vec<(u32, u32)>);

/// A hash-partitioned, read-only build side shared by all probe workers.
///
/// The equi-key hash column is computed once (vectorized, in parallel
/// chunks for large builds) and reused everywhere: the **high bits**
/// pick the radix partition, the **low bits** index the partition's
/// [`FlatTable`] — no row is ever hashed twice. Per-key candidates are a
/// chain threaded through `next` in build-row order, matching the serial
/// join's output order. Build sides under the partitioning threshold use
/// a single table. `matched` flags are atomic because multiple workers
/// probe concurrently.
pub(super) struct JoinStage {
    build_rows: Vec<Row>,
    /// Typed build-key arena (arena row == build row) when every key is
    /// word-representable; chain and probe compares then reduce to word
    /// compares, exactly like the serial [`crate::exec::join::JoinTable`].
    keys: Option<KeyArena>,
    /// One flat table per radix partition (len 1 = unpartitioned);
    /// payloads are chain-head build-row indices.
    parts: Vec<FlatTable>,
    /// Per build row: next row in its equal-key chain (`u32::MAX` ends).
    next: Vec<u32>,
    /// Right-shift mapping a key hash to its partition (64 when
    /// unpartitioned, i.e. everything lands in partition 0).
    part_shift: u32,
    matched: Vec<AtomicBool>,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    residual: Option<VectorKernel>,
    join: PhysJoinKind,
    probe_width: usize,
    build_width: usize,
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

impl JoinStage {
    /// Index `build_rows` on `build_keys`. Large build sides hash and
    /// bucketize in parallel over contiguous row chunks (per-partition
    /// row lists concatenate in chunk order, keeping global row order);
    /// the per-partition flat tables are then built by reverse-scan
    /// chain-prepending, so candidate chains iterate in build-row order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn build(
        build_rows: Vec<Row>,
        probe_width: usize,
        build_width: usize,
        probe_keys: Vec<usize>,
        build_keys: &[usize],
        residual: Option<VectorKernel>,
        join: PhysJoinKind,
        workers: usize,
    ) -> JoinStage {
        let n = build_rows.len();
        // Small-input fast path: below the threshold the radix pass costs
        // more than it saves — one flat table, built directly.
        let partitioned = n >= PARALLEL_BUILD_THRESHOLD;
        let nparts = if partitioned {
            partition_count(workers)
        } else {
            1
        };
        let part_shift = 64 - nparts.trailing_zeros();

        // Phase 1: the hash column, computed once. Parallel chunks for
        // large builds; each chunk also bucketizes its row ids per
        // partition.
        let (hashes, part_rows): (KeyHashes, Vec<Vec<u32>>) = if workers > 1 && partitioned {
            let chunk = n.div_ceil(workers);
            let chunk_out: Vec<(KeyHashes, Vec<Vec<u32>>)> = std::thread::scope(|s| {
                let handles: Vec<_> = build_rows
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, slice)| {
                        let build_keys = &build_keys;
                        s.spawn(move || {
                            let base = (ci * chunk) as u32;
                            let hashes = hash_rows_keys(slice, build_keys);
                            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nparts];
                            for (off, h) in hashes.hashes.iter().enumerate() {
                                if !hashes.is_null(off) {
                                    lists[partition_of(*h, part_shift)].push(base + off as u32);
                                }
                            }
                            (hashes, lists)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut hashes = KeyHashes::with_len(n);
            let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            let mut base = 0usize;
            for (chunk_hashes, lists) in chunk_out {
                hashes.splice_from(base, chunk_hashes);
                base += chunk;
                for (p, list) in lists.into_iter().enumerate() {
                    part_rows[p].extend(list);
                }
            }
            (hashes, part_rows)
        } else {
            let hashes = hash_rows_keys(&build_rows, build_keys);
            let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            for (i, h) in hashes.hashes.iter().enumerate() {
                if !hashes.is_null(i) {
                    part_rows[partition_of(*h, part_shift)].push(i as u32);
                }
            }
            (hashes, part_rows)
        };

        // Typed build-key arena: encoded once over the full build side,
        // shared read-only by every partition builder and probe worker.
        let arena = encode_build_keys(&build_rows, build_keys);
        match &arena {
            Some(_) => note_typed_rows(n as u64),
            None => note_fallback_rows(n as u64),
        }

        // Phase 2: per-partition flat tables, chains prepended over a
        // reverse scan of each partition's (globally ordered) row list.
        // One build loop serves both arms; only the chain sink differs
        // (direct write vs. recorded updates applied by the coordinator).
        let mut next = vec![u32::MAX; n];
        let build_part = |list: &[u32], set_next: &mut dyn FnMut(u32, u32)| -> FlatTable {
            let mut table = FlatTable::with_capacity(list.len());
            for &i in list.iter().rev() {
                let row = &build_rows[i as usize];
                chain_prepend(
                    &mut table,
                    hashes.hashes[i as usize],
                    i,
                    |p| match &arena {
                        Some(a) => a.eq_rows(p as usize, i as usize),
                        None => {
                            let head = &build_rows[p as usize];
                            build_keys.iter().all(|&k| head[k] == row[k])
                        }
                    },
                    |head| set_next(i, head),
                );
            }
            table
        };
        let parts: Vec<FlatTable> = if workers > 1 && partitioned {
            // Partitions hold disjoint row sets, so their chain writes
            // are disjoint; each builder returns its (row, next) updates
            // and the coordinator applies them. Partitions are chunked
            // across at most `workers` threads — the parallelism knob is
            // a resource bound, not a partition count.
            let per_thread = nparts.div_ceil(workers.max(1));
            let built: Vec<Vec<BuiltPartition>> = std::thread::scope(|s| {
                let handles: Vec<_> = part_rows
                    .chunks(per_thread)
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
                handles.into_iter().map(|h| h.join().unwrap()).collect()
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
            part_rows
                .iter()
                .map(|list| build_part(list, &mut |i, head| next[i as usize] = head))
                .collect()
        };

        // Matched flags exist only to compute the FULL OUTER tail; for
        // other join kinds the per-match atomic store (and the contended
        // cache lines it touches) would be pure overhead.
        let matched = if join == PhysJoinKind::FullOuter {
            (0..n).map(|_| AtomicBool::new(false)).collect()
        } else {
            Vec::new()
        };
        JoinStage {
            build_rows,
            keys: arena,
            parts,
            next,
            part_shift,
            matched,
            probe_keys,
            build_keys: build_keys.to_vec(),
            residual,
            join,
            probe_width,
            build_width,
        }
    }

    /// Probe one batch: the probe keys hash chunk-at-a-time (once),
    /// candidate pairs come from the key's radix partition, the residual
    /// filters vectorized, and output lays out in probe-row order with
    /// outer padding — exactly the serial `HashJoinOp::join_batch`
    /// discipline.
    fn apply<'b>(&self, batch: RowBatch<'b>) -> Result<Option<RowBatch<'b>>, EngineError> {
        let preserve_probe = matches!(self.join, PhysJoinKind::LeftOuter | PhysJoinKind::FullOuter);
        let rows = batch.num_rows();
        let mut cand_rows: Vec<u32> = Vec::new();
        let mut cand_bis: Vec<u32> = Vec::new();
        // Typed build sides hash *and* encode the probe keys in one
        // enum-dispatch pass; candidate compares are then word compares
        // (rows the typed layout can't represent compare exactly via
        // `eq_row_at`). Row-based build sides take the plain hash kernel.
        let (hashes, probe_chunk) = match &self.keys {
            Some(arena) => {
                let mut chunk = EncodedChunk::new();
                let hashes = arena.encode_probe_batch(&mut chunk, &batch, &self.probe_keys);
                note_typed_rows((rows - chunk.bad_rows()) as u64);
                note_fallback_rows(chunk.bad_rows() as u64);
                (hashes, Some(chunk))
            }
            None => {
                note_fallback_rows(rows as u64);
                (hash_batch_keys(&batch, &self.probe_keys), None)
            }
        };
        for row in 0..rows {
            if hashes.is_null(row) {
                continue;
            }
            let h = hashes.hashes[row];
            let part = &self.parts[partition_of(h, self.part_shift)];
            let head = match (&self.keys, probe_chunk.as_ref()) {
                (Some(arena), Some(chunk)) if chunk.ok(row) => {
                    part.find(h, |p| arena.eq_chunk(p as usize, chunk, row))
                }
                (Some(arena), _) => part.find(h, |p| {
                    arena.eq_row_at(p as usize, |c| batch.value(self.probe_keys[c], row))
                }),
                (None, _) => part.find(h, |p| {
                    let build = &self.build_rows[p as usize];
                    self.probe_keys
                        .iter()
                        .zip(&self.build_keys)
                        .all(|(&pk, &bk)| batch.value(pk, row) == &build[bk])
                }),
            };
            let mut cur = match head {
                Some(head) => head,
                None => continue,
            };
            while cur != u32::MAX {
                cand_bis.push(cur);
                cur = self.next[cur as usize];
            }
            cand_rows.resize(cand_bis.len(), row as u32);
        }
        // Inner join without a residual: the candidate arrays already
        // ARE the output pairs (probe-row order, chains in build-row
        // order) and matched flags are FULL OUTER-only — same fast path
        // as the serial `join_probe_batch`.
        if self.join == PhysJoinKind::Inner && self.residual.is_none() {
            if cand_rows.is_empty() {
                return Ok(None);
            }
            return Ok(Some(splice_output(
                &batch,
                cand_rows,
                &self.build_rows,
                self.build_width,
                &cand_bis,
            )));
        }
        let pass: Option<Vec<bool>> = match &self.residual {
            Some(kernel) if !cand_rows.is_empty() => {
                let frame = splice_output(
                    &batch,
                    cand_rows.clone(),
                    &self.build_rows,
                    self.build_width,
                    &cand_bis,
                );
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
                    if !self.matched.is_empty() {
                        self.matched[cand_bis[cur] as usize].store(true, Ordering::Relaxed);
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
        if probe_sel.is_empty() {
            return Ok(None);
        }
        Ok(Some(splice_output(
            &batch,
            probe_sel,
            &self.build_rows,
            self.build_width,
            &build_idx,
        )))
    }

    /// The FULL OUTER tail: unmatched build rows, NULL-padded on the
    /// probe side, chunked at the executor batch size. Only meaningful
    /// after every morsel has been probed.
    fn tail_batches(&self, batch_size: usize) -> Vec<RowBatch<'static>> {
        if self.join != PhysJoinKind::FullOuter {
            return Vec::new();
        }
        let ids: Vec<u32> = self
            .matched
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.load(Ordering::Relaxed))
            .map(|(i, _)| i as u32)
            .collect();
        ids.chunks(batch_size.max(1))
            .map(|chunk| {
                unmatched_build_batch(&self.build_rows, chunk, self.probe_width, self.build_width)
            })
            .collect()
    }
}

impl Stage {
    fn apply<'b>(&self, batch: RowBatch<'b>) -> Result<Option<RowBatch<'b>>, EngineError> {
        match self {
            Stage::Filter(kernel) => {
                let keep = kernel.select(&batch)?;
                Ok(batch.retain(keep))
            }
            Stage::Project(cols) => {
                let rows = batch.num_rows();
                let mut columns = Vec::with_capacity(cols.len());
                for proj in cols {
                    match proj {
                        Proj::Pass(index) if *index < batch.width() => {
                            columns.push(batch.column(*index).clone());
                        }
                        Proj::Pass(index) => {
                            return Err(EngineError::execution(format!(
                                "column index {index} out of range"
                            )));
                        }
                        Proj::Compute(kernel) => {
                            columns.push(ColumnData::owned(kernel.eval_column(&batch)?));
                        }
                    }
                }
                Ok(Some(RowBatch::new(columns, rows)))
            }
            Stage::Join(join) => join.apply(batch),
        }
    }
}

/// Run `batch` through `stages` in order; `None` when a stage drops every
/// row.
fn apply_stages<'b>(
    stages: &[Stage],
    mut batch: RowBatch<'b>,
) -> Result<Option<RowBatch<'b>>, EngineError> {
    for stage in stages {
        match stage.apply(batch)? {
            Some(b) => batch = b,
            None => return Ok(None),
        }
    }
    Ok(Some(batch))
}

/// Whether `plan` roots a pipeline worth running in parallel: its scan
/// leaf spans more than one morsel and is not answered by an index point
/// read.
fn worth_parallel(plan: &PhysicalPlan, cx: &ExecContext<'_>) -> bool {
    fn source(plan: &PhysicalPlan) -> Option<&PhysicalPlan> {
        match plan {
            PhysicalPlan::TableScan { .. } => Some(plan),
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                source(input)
            }
            PhysicalPlan::HashJoin { probe, .. } => source(probe),
            _ => None,
        }
    }
    let Some(PhysicalPlan::TableScan {
        table, index_eq, ..
    }) = source(plan)
    else {
        return false;
    };
    let Ok(t) = cx.catalog.table(table) else {
        return false;
    };
    if t.total_slots() <= cx.config.morsel_size() {
        return false;
    }
    index_eq.is_empty() || t.equality_lookup(index_eq).is_none()
}

/// Decompose `plan` into a [`PipelineSpec`] when it roots a pipeline
/// [`worth_parallel`]: walk Filter/Project/HashJoin nodes down to a
/// `TableScan` leaf, compiling stage kernels and materializing +
/// partitioning every join build side (recursively through the parallel
/// executor). `None` when the shape is not such a pipeline (the caller
/// falls back to breaker-level parallelism or serial execution).
pub(super) fn build_pipeline<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<Option<PipelineSpec<'a>>, EngineError> {
    if !worth_parallel(plan, cx) {
        return Ok(None);
    }
    pipeline_of(plan, cx)
}

fn pipeline_of<'a>(
    plan: &PhysicalPlan,
    cx: &ExecContext<'a>,
) -> Result<Option<PipelineSpec<'a>>, EngineError> {
    Ok(match plan {
        PhysicalPlan::TableScan {
            table, predicate, ..
        } => {
            // `worth_parallel` already rejected index point reads (they
            // take the serial path); no second `equality_lookup` probe
            // here. `predicate` carries the full conjunction including
            // any index-eligible equalities.
            let t = cx.catalog.table(table)?;
            let scan_kernel = match predicate {
                None => None,
                Some(p) => {
                    let prepared = prepare_expr(p, cx)?;
                    Some(VectorKernel::compile(&prepared))
                }
            };
            Some(PipelineSpec {
                table: t,
                scan_kernel,
                stages: Vec::new(),
            })
        }
        PhysicalPlan::Filter { input, predicate } => match pipeline_of(input, cx)? {
            None => None,
            Some(mut spec) => {
                let prepared = prepare_expr(predicate, cx)?;
                spec.stages
                    .push(Stage::Filter(VectorKernel::compile(&prepared)));
                Some(spec)
            }
        },
        PhysicalPlan::Project { input, exprs, .. } => match pipeline_of(input, cx)? {
            None => None,
            Some(mut spec) => {
                let mut cols = Vec::with_capacity(exprs.len());
                for e in exprs {
                    cols.push(match e {
                        crate::expr::BoundExpr::Column { index, .. } => Proj::Pass(*index),
                        _ => {
                            let prepared = prepare_expr(e, cx)?;
                            Proj::Compute(VectorKernel::compile(&prepared))
                        }
                    });
                }
                spec.stages.push(Stage::Project(cols));
                Some(spec)
            }
        },
        // Under a bounded memory budget, join build sides must be able
        // to spill; the fused `JoinStage` holds its partitioned build in
        // memory, so the plan is left to the breaker path, where both
        // sides stream through per-worker spill partitioners
        // ([`run_morsels_spill`]) into the grace-capable `HashJoinOp`.
        // Scans/filters/projects below stay morsel-parallel.
        PhysicalPlan::HashJoin { .. } if cx.config.budget().is_bounded() => None,
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
            join,
            ..
        } => match pipeline_of(probe, cx)? {
            None => None,
            Some(mut spec) => {
                // The build side materializes once, through the parallel
                // executor itself (it may contain its own pipelines).
                let build_rows = super::collect_rows(build, cx)?;
                let residual = residual
                    .as_ref()
                    .map(|e| prepare_expr(e, cx))
                    .transpose()?
                    .map(|e| VectorKernel::compile(&e));
                spec.stages.push(Stage::Join(Box::new(JoinStage::build(
                    build_rows,
                    probe.schema().len(),
                    build.schema().len(),
                    probe_keys.clone(),
                    build_keys,
                    residual,
                    *join,
                    cx.config.parallelism(),
                ))));
                Some(spec)
            }
        },
        _ => None,
    })
}

/// What each worker computes per morsel.
pub(super) enum MorselWork<'s> {
    /// Materialize the pipeline's output rows.
    Collect,
    /// Fold into a per-morsel grouped aggregation state.
    AggGrouped(&'s AggSpec),
    /// Fold into a per-morsel single accumulator set.
    AggGlobal(&'s AggSpec),
}

/// The per-morsel result, tagged with the morsel sequence number by
/// [`run_morsels`].
pub(super) enum MorselOut {
    Rows(Vec<Row>),
    Grouped(Box<GroupTable>),
    Global(crate::exec::aggregate::GroupState),
}

fn process_morsel(
    spec: &PipelineSpec<'_>,
    cx: &ExecContext<'_>,
    slots: Range<usize>,
    work: &MorselWork<'_>,
) -> Result<MorselOut, EngineError> {
    let batches =
        spec.table
            .scan_morsel(slots, cx.config.batch_size(), spec.scan_kernel.as_ref())?;
    match work {
        MorselWork::Collect => {
            let mut rows = Vec::new();
            for batch in batches {
                if let Some(b) = apply_stages(&spec.stages, batch)? {
                    rows.extend(b.to_rows());
                }
            }
            Ok(MorselOut::Rows(rows))
        }
        MorselWork::AggGrouped(agg) => {
            let mut groups = GroupTable::new();
            for batch in batches {
                if let Some(b) = apply_stages(&spec.stages, batch)? {
                    agg.fold_batch_grouped(&b, &mut groups)?;
                }
            }
            Ok(MorselOut::Grouped(Box::new(groups)))
        }
        MorselWork::AggGlobal(agg) => {
            let mut state = agg.new_state();
            for batch in batches {
                if let Some(b) = apply_stages(&spec.stages, batch)? {
                    agg.fold_batch_global(&b, &mut state)?;
                }
            }
            Ok(MorselOut::Global(state))
        }
    }
}

/// The morsel-driven worker loop: `workers` scoped threads claim
/// `morsel_size`-slot morsels of `total_slots` from a shared
/// [`MorselCursor`] until exhausted, running `work` on each. Results come
/// back tagged and sorted by morsel sequence so callers reconstruct the
/// serial order. On error the cursor is poisoned (other workers wind
/// down) and the error from the earliest morsel is returned — the same
/// error the serial executor would hit first.
pub(super) fn for_each_morsel<T: Send>(
    total_slots: usize,
    morsel_size: usize,
    workers: usize,
    work: impl Fn(Range<usize>) -> Result<T, EngineError> + Sync,
) -> Result<Vec<(usize, T)>, EngineError> {
    let cursor = MorselCursor::new(total_slots, morsel_size);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<(usize, EngineError)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some((seq, slots)) = cursor.claim() {
                    match work(slots) {
                        Ok(out) => results.lock().unwrap().push((seq, out)),
                        Err(e) => {
                            cursor.stop();
                            errors.lock().unwrap().push((seq, e));
                            return;
                        }
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap();
    if let Some((_, e)) = errors.into_iter().min_by_key(|(seq, _)| *seq) {
        return Err(e);
    }
    let mut out = results.into_inner().unwrap();
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Run `work` over every morsel of the pipeline's source table: one
/// [`MorselOut`] per morsel, in morsel order.
pub(super) fn run_morsels(
    spec: &PipelineSpec<'_>,
    cx: &ExecContext<'_>,
    work: MorselWork<'_>,
) -> Result<Vec<(usize, MorselOut)>, EngineError> {
    let total = spec.table.total_slots();
    for_each_morsel(
        total,
        cx.config.effective_morsel_size(total),
        cx.config.parallelism(),
        |slots| process_morsel(spec, cx, slots, &work),
    )
}

/// How rows flowing into a per-worker spill partitioner hash — it must be
/// the exact hash the consuming breaker uses on its serial drain path, so
/// radix partitions align between producers and the breaker's grace
/// processing.
pub(super) enum SpillHash<'s> {
    /// Equi-join key hash over the given columns.
    Keys(&'s [usize]),
    /// Whole-row hash (DISTINCT and set operations).
    WholeRow,
    /// Aggregation group-key hash.
    Agg(&'s AggSpec),
}

impl SpillHash<'_> {
    pub(super) fn hash(&self, batch: &RowBatch<'_>) -> Result<Vec<u64>, EngineError> {
        Ok(match self {
            SpillHash::Keys(cols) => hash_batch_keys(batch, cols).hashes,
            SpillHash::WholeRow => hash_batch_rows(batch),
            SpillHash::Agg(spec) => spec.group_hashes(batch)?,
        })
    }
}

/// Run one morsel's batches through the stage stack, pushing every output
/// row into the worker's spiller. Row sequence tags are
/// `seq_base | ordinal` with the ordinal counting output rows within the
/// morsel — unique and ascending per worker because workers claim morsels
/// in increasing sequence order.
fn spill_morsel(
    spec: &PipelineSpec<'_>,
    cx: &ExecContext<'_>,
    slots: Range<usize>,
    hash: &SpillHash<'_>,
    seq_base: u64,
    spiller: &mut PartitionedSpiller,
) -> Result<(), EngineError> {
    let batches =
        spec.table
            .scan_morsel(slots, cx.config.batch_size(), spec.scan_kernel.as_ref())?;
    let mut ordinal = 0u64;
    for batch in batches {
        if let Some(b) = apply_stages(&spec.stages, batch)? {
            let hashes = hash.hash(&b)?;
            for (r, &h) in hashes.iter().enumerate() {
                spiller.push(h, seq_base | ordinal, b.materialize_row(r))?;
                ordinal += 1;
            }
        }
    }
    Ok(())
}

/// The out-of-core morsel loop: like [`run_morsels`], but each worker
/// routes its morsel output straight into its own budget-accounted
/// [`PartitionedSpiller`] instead of materializing `Vec<Row>`s. Returns
/// one partition set per producer (worker spillers, plus one for the
/// FULL OUTER tails when the pipeline has any); sequence tags are
/// `seq_base + (morsel_seq << 32 | output_ordinal)`, so a sequence-ordered
/// merge of all producers reproduces the serial output order exactly.
pub(super) fn run_morsels_spill(
    spec: &PipelineSpec<'_>,
    cx: &ExecContext<'_>,
    hash: SpillHash<'_>,
    seq_base: u64,
) -> Result<Vec<Vec<SpillPartition>>, EngineError> {
    let total = spec.table.total_slots();
    let morsel = cx.config.effective_morsel_size(total);
    let cursor = MorselCursor::new(total, morsel);
    let num_morsels = total.div_ceil(morsel.max(1)) as u64;
    let producers: Mutex<Vec<Vec<SpillPartition>>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<(usize, EngineError)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..cx.config.parallelism() {
            s.spawn(|| {
                let mut spiller = PartitionedSpiller::new(cx.config.budget().clone(), 0);
                while let Some((seq, slots)) = cursor.claim() {
                    let base = seq_base + ((seq as u64) << 32);
                    if let Err(e) = spill_morsel(spec, cx, slots, &hash, base, &mut spiller) {
                        cursor.stop();
                        errors.lock().unwrap().push((seq, e));
                        return;
                    }
                }
                match spiller.finish() {
                    Ok(parts) => producers.lock().unwrap().push(parts),
                    Err(e) => {
                        cursor.stop();
                        errors.lock().unwrap().push((usize::MAX, e));
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap();
    if let Some((_, e)) = errors.into_iter().min_by_key(|(seq, _)| *seq) {
        return Err(e);
    }
    let mut producers = producers.into_inner().unwrap();
    // FULL OUTER tails sequence after every morsel row (morsel ordinals
    // stay below 1 << 32), matching the serial executor's append order.
    let tails = pipeline_tails(spec, cx)?;
    if !tails.is_empty() {
        let mut spiller = PartitionedSpiller::new(cx.config.budget().clone(), 0);
        let mut seq = seq_base + ((num_morsels + 1) << 32);
        for batch in tails {
            let hashes = hash.hash(&batch)?;
            for (r, &h) in hashes.iter().enumerate() {
                spiller.push(h, seq, batch.materialize_row(r))?;
                seq += 1;
            }
        }
        producers.push(spiller.finish()?);
    }
    Ok(producers)
}

/// The pipeline's tail batches: for every FULL OUTER join stage
/// (bottom-up), its unmatched build rows pushed through the *remaining*
/// stages — which may probe (and mark matches in) outer join stages
/// above, exactly as the serial executor's end-of-probe tail does. Must
/// run after [`run_morsels`] completes.
pub(super) fn pipeline_tails(
    spec: &PipelineSpec<'_>,
    cx: &ExecContext<'_>,
) -> Result<Vec<RowBatch<'static>>, EngineError> {
    let mut out = Vec::new();
    for j in 0..spec.stages.len() {
        if let Stage::Join(join) = &spec.stages[j] {
            for batch in join.tail_batches(cx.config.batch_size()) {
                if let Some(b) = apply_stages(&spec.stages[j + 1..], batch)? {
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

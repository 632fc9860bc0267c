//! Streaming operators: filter, project, limit, sort, top-k, and the
//! bag set operations. Duplicates are dropped by the grouped hash
//! aggregate ([`crate::exec::aggregate`]), never here.

use std::sync::Arc;

use crate::error::EngineError;
use crate::exec::batch::{ColumnData, RowBatch, DEFAULT_BATCH_SIZE};
use crate::exec::hash::{hash_batch_rows, RowCounter};
use crate::exec::spill::{
    for_each_fitting_group, MemoryBudget, PartitionedSpiller, SpillHash, SpillMerge,
};
use crate::exec::{replay, BoxedOperator, Input, Operator, Row};
use crate::expr::{BoundExpr, VectorKernel};
use crate::planner::SetOpKind;
use crate::value::Value;

/// Streaming filter: runs the compiled predicate kernel once per batch and
/// forwards a selection vector; values are never copied. The kernel is
/// shared, so one compiled predicate serves every morsel's operator.
pub struct FilterOp<'a> {
    input: BoxedOperator<'a>,
    kernel: Arc<VectorKernel>,
}

impl<'a> FilterOp<'a> {
    /// Filter `input` by a compiled predicate.
    pub fn new(input: BoxedOperator<'a>, kernel: Arc<VectorKernel>) -> FilterOp<'a> {
        FilterOp { input, kernel }
    }
}

impl<'a> Operator<'a> for FilterOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        while let Some(batch) = self.input.next_batch()? {
            let keep = self.kernel.select(&batch)?;
            if let Some(out) = batch.retain(keep) {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// One projection output column: either a zero-copy column passthrough or
/// a compiled expression kernel.
pub(crate) enum ProjColumn {
    Passthrough(usize),
    Computed(VectorKernel),
}

impl ProjColumn {
    /// Compile projection expressions, once per plan node.
    pub(crate) fn compile(exprs: &[BoundExpr]) -> Arc<[ProjColumn]> {
        exprs
            .iter()
            .map(|expr| match expr {
                BoundExpr::Column { index, .. } => ProjColumn::Passthrough(*index),
                _ => ProjColumn::Computed(VectorKernel::compile(expr)),
            })
            .collect()
    }
}

/// Streaming projection. Plain column references pass their chunk through
/// (zero-copy); computed expressions run as vectorized kernels into owned
/// columns. The compiled columns are shared like [`FilterOp`]'s kernel.
pub struct ProjectOp<'a> {
    input: BoxedOperator<'a>,
    columns: Arc<[ProjColumn]>,
}

impl<'a> ProjectOp<'a> {
    /// Project `input` through compiled columns.
    pub(crate) fn new(input: BoxedOperator<'a>, columns: Arc<[ProjColumn]>) -> ProjectOp<'a> {
        ProjectOp { input, columns }
    }
}

impl<'a> Operator<'a> for ProjectOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let rows = batch.num_rows();
        let mut columns = Vec::with_capacity(self.columns.len());
        for proj in self.columns.iter() {
            match proj {
                ProjColumn::Passthrough(index) if *index < batch.width() => {
                    columns.push(batch.column(*index).clone());
                }
                ProjColumn::Passthrough(index) => {
                    return Err(EngineError::execution(format!(
                        "column index {index} out of range"
                    )));
                }
                ProjColumn::Computed(kernel) => {
                    columns.push(ColumnData::owned(kernel.eval_column(&batch)?));
                }
            }
        }
        Ok(Some(RowBatch::new(columns, rows)))
    }
}

/// Streaming LIMIT/OFFSET with early termination: once the limit is
/// reached the child is never pulled again.
pub struct LimitOp<'a> {
    input: BoxedOperator<'a>,
    to_skip: usize,
    remaining: Option<usize>,
}

impl<'a> LimitOp<'a> {
    /// Skip `offset` rows, then emit up to `limit` rows.
    pub fn new(input: BoxedOperator<'a>, limit: Option<usize>, offset: usize) -> LimitOp<'a> {
        LimitOp {
            input,
            to_skip: offset,
            remaining: limit,
        }
    }
}

impl<'a> Operator<'a> for LimitOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        loop {
            if self.remaining == Some(0) {
                return Ok(None);
            }
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            let n = batch.num_rows();
            if self.to_skip >= n {
                self.to_skip -= n;
                continue;
            }
            let start = self.to_skip;
            self.to_skip = 0;
            let available = n - start;
            let take = match self.remaining {
                Some(r) => available.min(r),
                None => available,
            };
            if let Some(r) = &mut self.remaining {
                *r -= take;
            }
            let out = if start == 0 && take == n {
                batch
            } else {
                batch.slice(start, take)
            };
            return Ok(Some(out));
        }
    }
}

/// Full sort: a pipeline breaker that materializes its input, sorts by
/// pre-computed keys, and re-emits in batches.
pub struct SortOp<'a> {
    input: BoxedOperator<'a>,
    keys: Vec<(BoundExpr, bool)>,
    batch_size: usize,
    output: Option<BoxedOperator<'a>>,
}

impl<'a> SortOp<'a> {
    /// Sort `input` by `(expr, descending)` keys, major first.
    pub fn new(
        input: BoxedOperator<'a>,
        keys: Vec<(BoundExpr, bool)>,
        batch_size: usize,
    ) -> SortOp<'a> {
        SortOp {
            input,
            keys,
            batch_size,
            output: None,
        }
    }

    fn drain_and_sort(&mut self) -> Result<BoxedOperator<'a>, EngineError> {
        // Decorate: evaluate the sort keys once per row, against the batch.
        let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
        while let Some(batch) = self.input.next_batch()? {
            for row in 0..batch.num_rows() {
                let view = batch.row_view(row);
                let mut kv = Vec::with_capacity(self.keys.len());
                for (expr, _) in &self.keys {
                    kv.push(expr.eval(&view)?);
                }
                decorated.push((kv, batch.materialize_row(row)));
            }
        }
        let keys = &self.keys;
        decorated.sort_by(|(ka, _), (kb, _)| {
            for (i, (_, desc)) in keys.iter().enumerate() {
                let ord = ka[i].total_cmp(&kb[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let width = decorated.first().map_or(0, |(_, r)| r.len());
        let rows = decorated.into_iter().map(|(_, row)| row).collect();
        Ok(replay(width, rows, self.batch_size))
    }
}

impl<'a> Operator<'a> for SortOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.output.is_none() {
            let sorted = self.drain_and_sort()?;
            self.output = Some(sorted);
        }
        self.output.as_mut().expect("just set").next_batch()
    }
}

/// Compare two decorated key vectors under `(expr, descending)` specs.
fn cmp_keys(a: &[Value], b: &[Value], keys: &[(BoundExpr, bool)]) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// `ORDER BY … LIMIT k [OFFSET o]` through a bounded binary max-heap of
/// `k + o` rows: O(n log k) instead of a full sort, and memory bounded by
/// `min(k + o, input rows)`. The *retained set* is tie-stable (on equal
/// keys the earlier input row survives eviction), but tied rows may be
/// emitted in a different relative order than the stable full sort — SQL
/// leaves tie order unspecified.
pub struct TopKOp<'a> {
    input: BoxedOperator<'a>,
    keys: Vec<(BoundExpr, bool)>,
    limit: usize,
    offset: usize,
    batch_size: usize,
    output: Option<BoxedOperator<'a>>,
}

impl<'a> TopKOp<'a> {
    /// Keep the first `limit` rows after `offset` under the sort order.
    pub fn new(
        input: BoxedOperator<'a>,
        keys: Vec<(BoundExpr, bool)>,
        limit: usize,
        offset: usize,
        batch_size: usize,
    ) -> TopKOp<'a> {
        TopKOp {
            input,
            keys,
            limit,
            offset,
            batch_size,
            output: None,
        }
    }

    /// Sift the root down (`heap[0]` is the *worst* retained row).
    fn sift_down(heap: &mut [(Vec<Value>, Row)], keys: &[(BoundExpr, bool)]) {
        let len = heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < len && cmp_keys(&heap[l].0, &heap[largest].0, keys).is_gt() {
                largest = l;
            }
            if r < len && cmp_keys(&heap[r].0, &heap[largest].0, keys).is_gt() {
                largest = r;
            }
            if largest == i {
                return;
            }
            heap.swap(i, largest);
            i = largest;
        }
    }

    fn sift_up(heap: &mut [(Vec<Value>, Row)], keys: &[(BoundExpr, bool)]) {
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp_keys(&heap[i].0, &heap[parent].0, keys).is_gt() {
                heap.swap(i, parent);
                i = parent;
            } else {
                return;
            }
        }
    }

    fn drain_and_collect(&mut self) -> Result<BoxedOperator<'a>, EngineError> {
        let k = self.limit.saturating_add(self.offset);
        if k == 0 {
            return Ok(Box::new(std::iter::empty()));
        }
        // Never preallocate from the user-supplied LIMIT (a huge k would
        // abort on allocation); the heap grows only with rows seen.
        let mut heap: Vec<(Vec<Value>, Row)> = Vec::with_capacity(k.min(DEFAULT_BATCH_SIZE));
        while let Some(batch) = self.input.next_batch()? {
            for row in 0..batch.num_rows() {
                let view = batch.row_view(row);
                let mut kv = Vec::with_capacity(self.keys.len());
                for (expr, _) in &self.keys {
                    kv.push(expr.eval(&view)?);
                }
                if heap.len() < k {
                    heap.push((kv, batch.materialize_row(row)));
                    Self::sift_up(&mut heap, &self.keys);
                } else if cmp_keys(&kv, &heap[0].0, &self.keys).is_lt() {
                    // Strictly better than the worst retained row; on ties
                    // the earlier row stays, matching the stable sort.
                    heap[0] = (kv, batch.materialize_row(row));
                    Self::sift_down(&mut heap, &self.keys);
                }
            }
        }
        let keys = &self.keys;
        heap.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, keys));
        let width = heap.first().map_or(0, |(_, r)| r.len());
        let rows = heap.into_iter().skip(self.offset).map(|(_, row)| row);
        Ok(replay(width, rows.collect(), self.batch_size))
    }
}

impl<'a> Operator<'a> for TopKOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.output.is_none() {
            let collected = self.drain_and_collect()?;
            self.output = Some(collected);
        }
        self.output.as_mut().expect("just set").next_batch()
    }
}

/// UNION ALL / EXCEPT ALL / INTERSECT ALL — bag semantics. The set
/// semantics of UNION / EXCEPT / INTERSECT are these operations with a
/// duplicate-dropping grouped aggregate around them (see
/// [`crate::planner::physical::lower`]).
///
/// UNION ALL is a pure concatenation: it streams both inputs and never
/// spills. EXCEPT/INTERSECT materialize the right side into a flat
/// multiplicity map, then stream the left side against it, consuming one
/// multiplicity per match. Rows hash once per batch through the
/// chunk-at-a-time kernel.
///
/// With a bounded [`MemoryBudget`] the multiplicity map can exceed
/// memory, so both sides of EXCEPT/INTERSECT hand over radix partitions
/// on the whole-row hash and the operation runs one radix partition pair
/// at a time — equal rows always share a partition, so per-partition
/// multiplicity consumption matches the streaming order exactly, and
/// sequence tags restore the output order.
pub struct SetOpOp<'a> {
    op: SetOpKind,
    left: Input<'a>,
    right: Input<'a>,
    left_done: bool,
    right_counts: Option<RowCounter>,
    right_hint: usize,
    budget: MemoryBudget,
    batch_size: usize,
    spilled_output: Option<SpillMerge>,
}

impl<'a> SetOpOp<'a> {
    /// Combine `left` and `right` under the given bag operation.
    pub fn new(
        op: SetOpKind,
        left: impl Into<Input<'a>>,
        right: impl Into<Input<'a>>,
    ) -> SetOpOp<'a> {
        SetOpOp {
            op,
            left: left.into(),
            right: right.into(),
            left_done: false,
            right_counts: None,
            right_hint: 0,
            budget: MemoryBudget::unbounded(),
            batch_size: DEFAULT_BATCH_SIZE,
            spilled_output: None,
        }
    }

    /// Attach a memory budget (and the batch size spilled output is
    /// re-chunked at).
    pub fn with_budget(mut self, budget: MemoryBudget, batch_size: usize) -> SetOpOp<'a> {
        self.budget = budget;
        self.batch_size = batch_size.max(1);
        self
    }

    /// Pre-size the right-side multiplicity map from the planner's
    /// right-input estimate (0 = no hint). The map is sized when the
    /// in-memory path first needs it; the spill path never allocates it.
    pub fn with_size_hint(mut self, right_hint: usize) -> SetOpOp<'a> {
        self.right_hint = right_hint;
        self
    }

    /// Spill path for EXCEPT / INTERSECT: right partitions build the
    /// multiplicity maps, left partitions stream against them pairwise,
    /// and kept rows merge-emit in left sequence order.
    fn run_spilled_against_counts(&mut self) -> Result<SpillMerge, EngineError> {
        let budget = self.budget.clone();
        let right_groups = self.right.partitions(&budget, &SpillHash::WholeRow, 0)?;
        let left_groups = self.left.partitions(&budget, &SpillHash::WholeRow, 0)?;
        let except = self.op == SetOpKind::Except;
        let chunk_rows = self.batch_size;
        let mut runs = PartitionedSpiller::runs(budget.clone());
        for_each_fitting_group(
            right_groups,
            left_groups,
            &budget,
            0,
            &mut |right_tuples, left_merge| {
                let mut counts = RowCounter::new();
                for (hash, _, row) in right_tuples {
                    counts.add_row(hash, row);
                }
                runs.begin_run();
                left_merge.for_each_chunk(chunk_rows, |tuples: Vec<(u64, u64, Row)>| {
                    for (hash, seq, row) in tuples {
                        if consume(counts.count_mut_row(hash, &row)) != except {
                            runs.push_run(seq, 0, row)?;
                        }
                    }
                    Ok(())
                })
            },
        )?;
        SpillMerge::by_key(runs.finish()?, &budget)
    }

    fn next_union(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if !self.left_done {
            match self.left.next_batch()? {
                Some(batch) => return Ok(Some(batch)),
                None => self.left_done = true,
            }
        }
        self.right.next_batch()
    }

    fn next_against_counts(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        if self.right_counts.is_none() {
            let mut counts = if self.right_hint > 0 {
                RowCounter::with_capacity(self.right_hint)
            } else {
                RowCounter::new()
            };
            while let Some(batch) = self.right.next_batch()? {
                let hashes = hash_batch_rows(&batch);
                counts.begin_batch(&batch);
                for (row, &hash) in hashes.iter().enumerate() {
                    counts.add_batch_row(hash, row);
                }
            }
            self.right_counts = Some(counts);
        }
        let except = self.op == SetOpKind::Except;
        while let Some(batch) = self.left.next_batch()? {
            let counts = self.right_counts.as_mut().expect("built above");
            let hashes = hash_batch_rows(&batch);
            let mut keep: Vec<u32> = Vec::new();
            for (row, &hash) in hashes.iter().enumerate() {
                if consume(counts.count_mut(hash, &batch, row)) != except {
                    keep.push(row as u32);
                }
            }
            if let Some(out) = batch.retain(keep) {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// Consume one right-side multiplicity of a left row: whether the row
/// matched (INTERSECT ALL keeps exactly the matched rows, EXCEPT ALL the
/// others).
fn consume(count: Option<&mut usize>) -> bool {
    match count {
        Some(c) if *c > 0 => {
            *c -= 1;
            true
        }
        _ => false,
    }
}

impl<'a> Operator<'a> for SetOpOp<'a> {
    fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>, EngineError> {
        // UNION ALL is pure concatenation — nothing accumulates, so it
        // streams regardless of the budget.
        if self.op == SetOpKind::Union {
            return self.next_union();
        }
        if self.spilled_output.is_some() || self.budget.is_bounded() {
            if self.spilled_output.is_none() {
                let merged = self.run_spilled_against_counts()?;
                self.spilled_output = Some(merged);
            }
            let merged = self.spilled_output.as_mut().expect("just set");
            return merged.next_batch(self.batch_size);
        }
        self.next_against_counts()
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

    fn rows(vals: impl IntoIterator<Item = i64>) -> Vec<Row> {
        vals.into_iter().map(|v| vec![i(v)]).collect()
    }

    fn static_op<'a>(vals: impl IntoIterator<Item = i64>, batch_size: usize) -> BoxedOperator<'a> {
        replay(1, rows(vals), batch_size)
    }

    #[test]
    fn filter_composes_selections() {
        // v > 2, over batches of 3
        let pred = BoundExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(BoundExpr::Column {
                index: 0,
                ty: Some(DataType::Integer),
                name: "v".into(),
            }),
            right: Box::new(BoundExpr::Literal(i(2))),
        };
        let kernel = Arc::new(VectorKernel::compile(&pred));
        let out = drain(Box::new(FilterOp::new(static_op(0..6, 3), kernel))).unwrap();
        assert_eq!(out, rows(3..6));
    }

    #[test]
    fn limit_skips_and_stops_across_batch_boundaries() {
        // offset 3, limit 4 over batches of 2: spans three batches.
        let op = LimitOp::new(static_op(0..10, 2), Some(4), 3);
        let out = drain(Box::new(op)).unwrap();
        assert_eq!(out, rows(3..7));
        // offset beyond input
        let op = LimitOp::new(static_op(0..3, 2), Some(2), 5);
        assert!(drain(Box::new(op)).unwrap().is_empty());
        // limit zero never touches values
        let op = LimitOp::new(static_op(0..3, 2), Some(0), 0);
        assert!(drain(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn sort_orders_and_rebatches() {
        let key = BoundExpr::Column {
            index: 0,
            ty: Some(DataType::Integer),
            name: "v".into(),
        };
        let op = SortOp::new(replay(1, rows([3, 1, 2, 5, 4]), 2), vec![(key, true)], 2);
        let out = drain(Box::new(op)).unwrap();
        assert_eq!(out, rows([5, 4, 3, 2, 1]));
    }

    #[test]
    fn bag_set_ops_consume_multiplicities() {
        let bag = |op, left: &[i64], right: &[i64]| {
            let op = SetOpOp::new(
                op,
                static_op(left.to_vec(), 2),
                static_op(right.to_vec(), 2),
            );
            drain(Box::new(op)).unwrap()
        };
        assert_eq!(bag(SetOpKind::Union, &[1, 2], &[2]), rows([1, 2, 2]));
        assert_eq!(bag(SetOpKind::Except, &[1, 1, 2], &[1]), rows([1, 2]));
        assert_eq!(
            bag(SetOpKind::Intersect, &[1, 1, 2], &[1, 1, 3]),
            rows([1, 1])
        );
        assert!(bag(SetOpKind::Except, &[], &[1]).is_empty());
        assert!(bag(SetOpKind::Union, &[], &[]).is_empty());
    }

    #[test]
    fn spilled_set_ops_are_row_identical() {
        // Duplicate-heavy streams with NULLs crossing batch boundaries.
        let mk_rows = |n: i64, stride: i64| -> Vec<Row> {
            (0..n)
                .map(|v| {
                    let a = if v % 17 == 0 {
                        Value::Null
                    } else {
                        i(v % stride)
                    };
                    vec![a, i(v % 3)]
                })
                .collect()
        };
        let left = mk_rows(400, 13);
        let right = mk_rows(250, 9);
        for op_kind in [SetOpKind::Union, SetOpKind::Except, SetOpKind::Intersect] {
            let run = |budget: MemoryBudget| {
                let op = SetOpOp::new(
                    op_kind,
                    replay(2, left.clone(), 7),
                    replay(2, right.clone(), 7),
                )
                .with_budget(budget, 7);
                drain(Box::new(op)).unwrap()
            };
            let unbounded = run(MemoryBudget::unbounded());
            for limit in [1usize, 2048] {
                let budget = MemoryBudget::with_limit(limit);
                assert_eq!(unbounded, run(budget.clone()), "{op_kind:?} at {limit}B");
                if limit == 1 {
                    // UNION ALL is a concatenation and never spills.
                    let spills = op_kind != SetOpKind::Union;
                    assert_eq!(budget.stats().spilled(), spills, "{op_kind:?}");
                }
            }
        }
    }
}
